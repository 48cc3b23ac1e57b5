#include "harness.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

namespace nectar::bench {

namespace {

// A path operand follows --json/--trace unless the next argument is a flag.
bool takes_operand(int i, int argc, char** argv) {
  return i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--";
}

[[noreturn]] void reject(const char* prog, const char* arg, unsigned flags) {
  std::fprintf(stderr, "%s: unknown flag '%s'\nusage: %s%s%s%s%s\n", prog, arg,
               prog, flags & kQuick ? " [--quick]" : "",
               flags & kJson ? " [--json [path]]" : "",
               flags & kChurnOnly ? " [--churn-only]" : "",
               flags & kTrace ? " [--trace [path]]" : "");
  std::exit(2);
}

}  // namespace

Args parse(int argc, char** argv, unsigned flags, std::string bench,
           std::string record) {
  const std::string stem = "BENCH_" + (record.empty() ? bench : record);
  Args a;
  a.json_path = stem + ".json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if ((flags & kQuick) && arg == "--quick") {
      a.quick = true;
    } else if ((flags & kJson) && arg == "--json") {
      a.json = true;
      if (takes_operand(i, argc, argv)) a.json_path = argv[++i];
    } else if ((flags & kChurnOnly) && arg == "--churn-only") {
      a.churn_only = true;
    } else if ((flags & kTrace) && arg == "--trace") {
      a.trace_path = stem + "_trace.json";
      if (takes_operand(i, argc, argv)) a.trace_path = argv[++i];
    } else {
      reject(argv[0], argv[i], flags);
    }
  }
  a.bench = std::move(bench);
  return a;
}

core::Json record(const Args& args) {
  core::Json env = core::Json::object();
  env.set("hardware_threads",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  env.set("compiler", __VERSION__);
#ifdef NDEBUG
  env.set("ndebug", true);
#else
  env.set("ndebug", false);
#endif
#ifdef __OPTIMIZE__
  env.set("optimized", true);
#else
  env.set("optimized", false);
#endif
  core::Json rec = core::Json::object();
  rec.set("bench", args.bench);
  rec.set("schema_version", kSchemaVersion);
  rec.set("quick", args.quick);
  rec.set("env", std::move(env));
  return rec;
}

int finish(const Args& args, const core::Json& rec, bool ok) {
  if (args.json) {
    if (!core::write_json_file(args.json_path, rec)) {
      std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace nectar::bench
