#include "util/log.hpp"

#include <limits>

namespace maestro::util {

std::vector<double> ToolLog::series(const std::string& key, double fallback) const {
  std::vector<double> out;
  out.reserve(iterations.size());
  for (const auto& it : iterations) out.push_back(it.value(key, fallback));
  return out;
}

std::optional<double> ToolLog::final_value(const std::string& key) const {
  if (iterations.empty()) return std::nullopt;
  const auto& vals = iterations.back().values;
  const auto it = vals.find(key);
  if (it == vals.end()) return std::nullopt;
  return it->second;
}

Json ToolLog::to_json() const {
  JsonObject obj;
  obj["tool"] = Json{tool};
  obj["design"] = Json{design};
  // Seeds are full 64-bit values; JSON numbers (doubles) lose precision past
  // 2^53, so serialize as a decimal string.
  obj["seed"] = Json{std::to_string(seed)};
  obj["completed"] = Json{completed};
  JsonObject meta;
  for (const auto& [k, v] : metadata) meta[k] = Json{v};
  obj["metadata"] = Json{std::move(meta)};
  JsonArray iters;
  for (const auto& it : iterations) {
    JsonObject rec;
    rec["iteration"] = Json{it.iteration};
    JsonObject vals;
    for (const auto& [k, v] : it.values) vals[k] = Json{v};
    rec["values"] = Json{std::move(vals)};
    iters.push_back(Json{std::move(rec)});
  }
  obj["iterations"] = Json{std::move(iters)};
  return Json{std::move(obj)};
}

std::optional<ToolLog> ToolLog::from_json(const Json& j) {
  if (!j.is_object()) return std::nullopt;
  ToolLog log;
  log.tool = j.at("tool").as_string();
  log.design = j.at("design").as_string();
  const auto seed = id_from_json(j.at("seed"));  // legacy files hold a number
  if (!seed) return std::nullopt;
  log.seed = *seed;
  log.completed = j.at("completed").as_bool();
  for (const auto& [k, v] : j.at("metadata").as_object()) {
    log.metadata[k] = v.as_string();
  }
  for (const auto& rec : j.at("iterations").as_array()) {
    LogIteration it;
    // Range-checked first: casting a NaN or out-of-range double is undefined.
    const double iteration = rec.at("iteration").as_number();
    if (!(iteration >= std::numeric_limits<int>::min() &&
          iteration <= std::numeric_limits<int>::max())) {
      return std::nullopt;
    }
    it.iteration = static_cast<int>(iteration);
    for (const auto& [k, v] : rec.at("values").as_object()) {
      it.values[k] = v.as_number();
    }
    log.iterations.push_back(std::move(it));
  }
  return log;
}

}  // namespace maestro::util
