#include "metrics/record.hpp"

#include <cmath>

namespace maestro::metrics {

namespace {

// JSON has no NaN/Inf literals (Json::dump would emit null, which reads back
// as 0.0). Non-finite metric values are encoded as tagged strings so records
// survive the wire protocol and save/load bit-identically.
util::Json encode_value(double v) {
  if (std::isnan(v)) return util::Json{"nan"};
  if (std::isinf(v)) return util::Json{v > 0 ? "inf" : "-inf"};
  return util::Json{v};
}

double decode_value(const util::Json& j) {
  if (j.is_string()) {
    const std::string& s = j.as_string();
    if (s == "nan") return std::nan("");
    if (s == "inf") return HUGE_VAL;
    if (s == "-inf") return -HUGE_VAL;
  }
  return j.as_number();
}

}  // namespace

std::optional<double> Record::value(const std::string& name) const {
  const auto it = values.find(name);
  if (it == values.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> Record::knob(const std::string& name) const {
  const auto it = knobs.find(name);
  if (it == knobs.end()) return std::nullopt;
  return it->second;
}

util::Json Record::to_json() const {
  util::JsonObject obj;
  // 64-bit ids and seeds do not fit in a JSON double; store them as
  // decimal strings.
  obj["run_id"] = util::Json{std::to_string(run_id)};
  obj["design"] = util::Json{design};
  obj["step"] = util::Json{step};
  obj["seed"] = util::Json{std::to_string(seed)};
  util::JsonObject k;
  for (const auto& [name, v] : knobs) k[name] = util::Json{v};
  obj["knobs"] = util::Json{std::move(k)};
  util::JsonObject v;
  for (const auto& [name, val] : values) v[name] = encode_value(val);
  obj["values"] = util::Json{std::move(v)};
  return util::Json{std::move(obj)};
}

std::optional<Record> Record::from_json(const util::Json& j) {
  if (!j.is_object()) return std::nullopt;
  const auto run_id = util::id_from_json(j.at("run_id"));
  const auto seed = util::id_from_json(j.at("seed"));
  if (!run_id || !seed) return std::nullopt;
  Record r;
  r.run_id = *run_id;
  r.design = j.at("design").as_string();
  r.step = j.at("step").as_string();
  r.seed = *seed;
  // Missing "knobs"/"values" fields read as empty objects (at() returns a
  // null Json whose as_object() is empty), so partial records stay loadable.
  for (const auto& [k, v] : j.at("knobs").as_object()) r.knobs[k] = v.as_string();
  for (const auto& [k, v] : j.at("values").as_object()) r.values[k] = decode_value(v);
  return r;
}

}  // namespace maestro::metrics
