// One command line and one JSON record for every bench binary.
//
// Each bench main() starts with parse(), naming the flags it accepts; any
// other argument exits 2 with the flag named on stderr, before anything
// runs. The record is written only with --json: to BENCH_<record>.json in
// the cwd, or to the path that follows the flag. Every record opens with
// the same keys — bench, schema_version, quick and an env block saying which
// machine and build produced it — and finish() writes it, reports the write
// and turns the outcome into the exit code.
#pragma once

#include <string>

#include "core/json.h"

namespace nectar::bench {

// Layout version of every BENCH_*.json record. 2: the common header
// (bench, schema_version, quick, env) replaced the per-bench
// hardware_threads fields.
inline constexpr int kSchemaVersion = 2;

// Flags a bench may accept.
enum Flag : unsigned {
  kQuick = 1u << 0,      // --quick: CI-sized run
  kJson = 1u << 1,       // --json [path]: write the record
  kChurnOnly = 1u << 2,  // --churn-only: flow_scaling's connection-churn cell
  kTrace = 1u << 3,      // --trace [path]: latency_profile's Chrome trace
};

struct Args {
  std::string bench;  // the record's "bench" key
  bool quick = false;
  bool json = false;      // --json given
  std::string json_path;  // BENCH_<record>.json unless --json names a path
  bool churn_only = false;
  std::string trace_path;  // empty unless --trace given
};

// Parses argv against the accepted `flags`; exits 2 on anything else. The
// record file defaults to BENCH_<record>.json, `record` defaulting to `bench`.
Args parse(int argc, char** argv, unsigned flags, std::string bench = "",
           std::string record = "");

// A record holding only the common keys; the bench adds its own.
core::Json record(const Args& args);

// Writes `rec` if --json was given and returns the exit code: 1 if the write
// failed or !ok, else 0.
int finish(const Args& args, const core::Json& rec, bool ok = true);

}  // namespace nectar::bench
