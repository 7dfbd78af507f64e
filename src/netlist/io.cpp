#include "netlist/io.hpp"

#include <map>
#include <sstream>


namespace maestro::netlist {

std::string write_netlist(const Netlist& nl) {
  std::ostringstream os;
  os << "maestro_netlist 1\n";
  os << "design " << nl.name() << '\n';
  for (std::size_t i = 0; i < nl.instance_count(); ++i) {
    const auto id = static_cast<InstanceId>(i);
    os << "instance " << nl.instance(id).name << ' ' << nl.master_of(id).name << '\n';
  }
  for (std::size_t n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(static_cast<NetId>(n));
    os << "net " << net.name << ' ' << nl.instance(net.driver).name;
    for (const auto& sink : net.sinks) {
      os << ' ' << nl.instance(sink.instance).name << ':' << sink.pin;
    }
    os << '\n';
  }
  return os.str();
}

namespace {

bool fail(ParseError* error, std::size_t line, std::string message) {
  if (error) *error = {line, std::move(message)};
  return false;
}

}  // namespace

std::optional<Netlist> read_netlist(const CellLibrary& lib, const std::string& text,
                                    ParseError* error) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  auto bad = [&](const std::string& msg) -> std::optional<Netlist> {
    fail(error, lineno, msg);
    return std::nullopt;
  };

  if (!std::getline(in, line)) return bad("empty input");
  ++lineno;
  if (line != "maestro_netlist 1") return bad("bad header: " + line);

  std::string design = "top";
  std::optional<Netlist> nl;
  std::map<std::string, InstanceId> by_name;

  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "design") {
      // A later design line would drop the instances by_name refers to.
      if (nl) return bad("design line after netlist content");
      ls >> design;
      nl.emplace(lib, design);
    } else if (kind == "instance") {
      if (!nl) nl.emplace(lib, design);
      std::string name;
      std::string master;
      if (!(ls >> name >> master)) return bad("malformed instance line");
      const auto m = lib.find(master);
      if (!m) return bad("unknown master: " + master);
      if (by_name.count(name)) return bad("duplicate instance: " + name);
      by_name[name] = nl->add_instance(name, *m);
    } else if (kind == "net") {
      if (!nl) return bad("net before any instance");
      std::string name;
      std::string driver;
      if (!(ls >> name >> driver)) return bad("malformed net line");
      const auto dit = by_name.find(driver);
      if (dit == by_name.end()) return bad("unknown driver: " + driver);
      if (nl->instance(dit->second).output_net != kNoNet) {
        return bad("instance already drives a net: " + driver);
      }
      const NetId net = nl->add_net(name, dit->second);
      std::string sink_tok;
      while (ls >> sink_tok) {
        const auto colon = sink_tok.rfind(':');
        if (colon == std::string::npos) return bad("malformed sink: " + sink_tok);
        const std::string sink_name = sink_tok.substr(0, colon);
        int pin = -1;
        try {
          pin = std::stoi(sink_tok.substr(colon + 1));
        } catch (...) {
          return bad("bad pin in sink: " + sink_tok);
        }
        const auto sit = by_name.find(sink_name);
        if (sit == by_name.end()) return bad("unknown sink: " + sink_name);
        const auto& inst = nl->instance(sit->second);
        if (pin < 0 || static_cast<std::size_t>(pin) >= inst.input_nets.size()) {
          return bad("pin out of range in sink: " + sink_tok);
        }
        if (inst.input_nets[static_cast<std::size_t>(pin)] != kNoNet) {
          return bad("pin already connected: " + sink_tok);
        }
        nl->connect(net, sit->second, pin);
      }
    } else {
      return bad("unknown directive: " + kind);
    }
  }
  if (!nl) return bad("no design content");
  return nl;
}

}  // namespace maestro::netlist
