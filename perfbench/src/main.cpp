// perfbench — maestro's flow-level benchmark driver.
//
//   perfbench --workload flow|campaign|fleet --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out PATH]
//
// Prints one human-readable line per metric, a digest of the workload's
// outputs, and as its last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// Exit status 0 when the run completed (correct or not), 1 when a workload
// threw, 2 on bad usage.

#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/trace.hpp"
#include "resil/fault.hpp"
#include "speed.hpp"
#include "workload.hpp"

namespace perfbench {

void Outcome::fail_check(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ULL;
  }
}
Digest& Digest::add(std::uint64_t v) {
  bytes(&v, sizeof v);
  return *this;
}
Digest& Digest::add(double v) {
  bytes(&v, sizeof v);
  return *this;
}
Digest& Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  bytes(s.data(), s.size());
  return *this;
}
Digest& Digest::add(const maestro::flow::FlowResult& r) {
  add(static_cast<std::uint64_t>(r.completed) | static_cast<std::uint64_t>(r.timing_met) << 1 |
      static_cast<std::uint64_t>(r.drc_clean) << 2 |
      static_cast<std::uint64_t>(r.constraints_met) << 3);
  for (const double v : {r.area_um2, r.wns_ps, r.whs_ps, r.tns_ps, r.power_mw, r.final_drvs,
                         r.route_difficulty, r.hpwl_dbu, r.clock_skew_ps, r.ir_drop_v,
                         r.tat_minutes}) {
    add(v);
  }
  return add(r.failed_step);
}

bool same_result(const maestro::flow::FlowResult& a, const maestro::flow::FlowResult& b,
                 bool with_logs) {
  if (Digest{}.add(a).value() != Digest{}.add(b).value()) return false;
  if (!with_logs) return true;
  if (a.logs.size() != b.logs.size()) return false;
  for (std::size_t i = 0; i < a.logs.size(); ++i) {
    if (a.logs[i].to_json().dump() != b.logs[i].to_json().dump()) return false;
  }
  return true;
}

}  // namespace perfbench

namespace {

void usage() {
  std::fputs(
      "usage: perfbench --workload flow|campaign|fleet --seed N --seconds S --trace 0|1\n"
      "                 [--work-dir DIR] [--trace-out PATH]\n",
      stderr);
}

/// Host-speed probe samples before and after the workload.
constexpr int kSpeedSamples = 10;

/// Shortest decimal that round-trips the double, so no digit is lost.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") opt.workload = val;
      else if (arg == "--seed") opt.seed = std::stoull(val);
      else if (arg == "--seconds") opt.seconds = std::stod(val);
      else if (arg == "--trace") opt.trace = val != "0";
      else if (arg == "--work-dir") opt.work_dir = val;
      else if (arg == "--trace-out") opt.trace_path = val;
      else {
        usage();
        return 2;
      }
    } catch (const std::exception&) {
      usage();
      return 2;
    }
  }
  if (opt.seconds <= 0.0) {
    usage();
    return 2;
  }
  if (!opt.work_dir.empty() && ::chdir(opt.work_dir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot enter work dir %s\n", opt.work_dir.c_str());
    return 2;
  }

  // Pin what the library would otherwise read from the environment: no
  // fault plan and no library tracer, whatever the caller's shell exports.
  maestro::resil::FaultInjector::clear();
  maestro::obs::Tracer::uninstall();

  // The host-speed probe samples while no workload thread exists; `flow`
  // also samples it before each of its cases.
  SpeedProbe speed;
  for (int i = 0; i < kSpeedSamples; ++i) speed.sample();
  opt.speed = &speed;
  Outcome out;
  try {
    if (opt.workload == "flow") out = run_flow(opt);
    else if (opt.workload == "campaign") out = run_campaign(opt);
    else if (opt.workload == "fleet") out = run_fleet(opt);
    else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    // A run that throws out of a workload produced no report to check.
    std::fprintf(stderr, "perfbench: %s workload threw: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  for (int i = 0; i < kSpeedSamples; ++i) speed.sample();
  const double time_scale = speed.scale();
  if (opt.trace) out.set("obs.time_scale", time_scale, "ratio");
  std::printf("workload %s seed %" PRIu64 " trace %d time_scale %.6f probe %zu samples %s\n",
              opt.workload.c_str(), opt.seed, opt.trace ? 1 : 0, time_scale, speed.samples().size(),
              speed.summary().c_str());
  for (auto& [name, m] : out.metrics) {
    std::printf("  %-32s %16.6f %s", name.c_str(), m.value, m.unit.c_str());
    if (out.reference_host) {
      // Times and rates on the reference host (speed.hpp); the raw reading
      // stays on this line.
      if (m.unit == "s" || m.unit == "ms") m.value *= time_scale;
      if (m.unit == "1/s") m.value /= time_scale;
      std::printf("  reference host %.6f", m.value);
    }
    std::printf("\n");
  }
  std::printf("digest %016" PRIx64 "\n", out.digest);
  std::printf("attempted %" PRIu64 " failed %" PRIu64 " correct %s\n", out.attempted, out.failed,
              out.correct ? "true" : "false");

  std::ostringstream json;
  json << "{\"correct\":" << (out.correct ? "true" : "false") << ",\"attempted\":" << out.attempted
       << ",\"failed\":" << out.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    json << (first ? "" : ",") << '"' << name << "\":{\"value\":" << number(m.value)
         << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
