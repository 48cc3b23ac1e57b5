// nectar_perfbench: runs one benchmark workload in this process and prints
// a human-readable summary followed by the full JSON report on the last
// line of standard output. Exit status 0 iff every correctness check passed.
//
//   nectar_perfbench --workload <paper_ttcp|matrix_sharded|conn_churn>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--scale <full|quick>] [--workers <n>] [--trace-out <path>]
//
// Unknown flags and malformed values are rejected (exit 2).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nectar_perfbench: %s\n"
               "usage: nectar_perfbench --workload <paper_ttcp|matrix_sharded|"
               "conn_churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--scale <full|quick>] [--workers <n>] [--trace-out <path>]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* v) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (*v == '\0' || *v == '-' || end == nullptr || *end != '\0')
    usage((std::string("bad value for ") + flag).c_str());
  return n;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_uint("--seed", v);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint("--seconds", v));
      if (o.seconds < 1) usage("--seconds must be at least 1");
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint("--trace", v);
      if (t > 1) usage("--trace takes 0 or 1");
      o.trace = t == 1;
      have_trace = true;
    } else if (flag == "--scale") {
      if (std::strcmp(v, "full") == 0) {
        o.scale = Scale::kFull;
      } else if (std::strcmp(v, "quick") == 0) {
        o.scale = Scale::kQuick;
      } else {
        usage("--scale takes full or quick");
      }
    } else if (flag == "--workers") {
      o.workers = parse_uint("--workers", v);
      if (o.workers < 1 || o.workers > 2) usage("--workers takes 1 or 2");
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  return o;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

nectar::core::Json environment() {
  nectar::core::Json e = nectar::core::Json::object();
  e.set("build_type", PERFBENCH_BUILD_TYPE);
  e.set("compiler", PERFBENCH_COMPILER);
  e.set("cxx_flags", PERFBENCH_CXX_FLAGS);
  e.set("hardware_threads",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  e.set("cpu_model", cpu_model());
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Report rep;
  rep.info("env", environment());
  if (o.workload == "paper_ttcp") {
    run_paper_ttcp(o, rep);
  } else if (o.workload == "matrix_sharded") {
    run_matrix_sharded(o, rep);
  } else if (o.workload == "conn_churn") {
    run_conn_churn(o, rep);
  } else {
    usage(("unknown workload " + o.workload).c_str());
  }
  const nectar::core::Json j = rep.json(o);

  std::printf("workload %s  seed %llu  trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  for (const auto& [name, m] : j.find("metrics")->members()) {
    std::printf("  %-34s %18.6g %s\n", name.c_str(), m.find("value")->as_double(),
                m.find("unit")->as_string().c_str());
  }
  for (const auto& e : j.find("errors")->items())
    std::printf("ERROR: %s\n", e.as_string().c_str());
  std::printf("%s\n", j.dump(0).c_str());
  return rep.correct() ? 0 : 1;
}
