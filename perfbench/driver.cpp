// perfbench -- end-to-end benchmark driver for the catalyst library.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--root DIR] [--git-sha SHA]
//
// Runs one closed-loop workload from a single client thread: set-up several
// times (the median is setup_s), then homogeneous ops back to back for S
// seconds, checking every op's outputs.  The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 measures the end-to-end metrics with obs::Tracer off.  --trace 1
// reports the per-layer metrics instead: ops alternate tracer on and off,
// the layers are read from the traced ops, and the gap between the two
// halves is the tracing overhead.  Per-layer values are per op for layers
// the op runs, otherwise per set-up for layers only the set-up runs, and 0
// for layers the workload never reaches.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string root = ".";
  std::string git_sha = "unknown";
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (key == "--root") {
      args.root = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 &&
         args.trace >= 0;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

/// The per-layer metrics of a traced run (names match BENCHMARK.json).
std::vector<Metric> layer_metrics(const Layers& op_layers, std::size_t ops,
                                  const Layers& setup_layers,
                                  double traced_ms, double untraced_p50,
                                  double traced_p50) {
  // Per op where the op runs the layer, else per set-up.
  const auto per = [&](const std::string& name) {
    if (op_layers.has(name)) {
      return op_layers.get(name) / static_cast<double>(std::max<std::size_t>(ops, 1));
    }
    return setup_layers.get(name) / kSetups;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::vector<Metric> m;
  const auto ms = [&](const char* metric, const std::string& layer) {
    m.push_back({metric, per(layer), "ms"});
  };
  ms("cat.build_ms", "cat.build");
  m.push_back({"cachesim.dcache_ns_per_access",
               ratio(per("cachesim.dcache_build") * 1e6,
                     per("cachesim.dcache_accesses")),
               "ns"});
  ms("pmu.machine_ms", "pmu.machine");
  ms("vpapi.collect_ms", "vpapi.collect");
  ms("core.median_normalize_ms", "core.median_normalize");
  ms("core.noise_ms", "core.noise");
  ms("core.projection_ms", "core.projection");
  ms("core.qrcp_ms", "core.qrcp");
  ms("core.metrics_ms", "core.metrics");
  ms("core.analysis_ms", "core.analysis");
  ms("report.render_ms", "report.render");
  ms("io.load_ms", "io.load");
  m.push_back({"io.load_mb_per_s",
               ratio(per("io.load_bytes") / 1e6, per("io.load") / 1e3),
               "MB/s"});
  ms("service.submit_ms", "service.submit");
  m.push_back({"service.wire_mb_per_s",
               ratio(per("service.submit_bytes") / 1e6,
                     per("service.submit") / 1e3),
               "MB/s"});
  ms("service.queue_wait_ms", "service.queue_wait");
  ms("service.execute_ms", "service.execute");
  ms("service.poll_ms", "service.poll");
  m.push_back({"service.submit_bytes", per("service.submit_bytes"), "bytes"});
  m.push_back({"modelgen.generate_s", per("modelgen.generate") / 1e3, "s"});
  for (const char* category : {"cpu_flops", "gpu_flops", "branch", "dcache",
                               "icache", "gpu_dcache"}) {
    ms((std::string("category.") + category + "_ms").c_str(),
       std::string("category.") + category);
  }
  m.push_back({"untraced.share",
               traced_ms > 0.0 ? 1.0 - op_layers.leaf_total() / traced_ms : 0.0,
               "share"});
  m.push_back({"obs.trace_overhead_pct",
               untraced_p50 > 0.0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0
                                  : 0.0,
               "%"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--root DIR] [--git-sha SHA]\n";
    return 2;
  }
  // The measured runs need the tracer off; an environment that forces it on
  // would silently measure the traced code path.
  if (const char* env = std::getenv("CATALYST_TRACE");
      env != nullptr && std::string(env) == "1") {
    std::cerr << "perfbench: refusing to run with CATALYST_TRACE=1\n";
    return 2;
  }

  const WorkloadContext ctx{args.root, args.seed};
  std::unique_ptr<Workload> workload;
  if (args.workload == "scale_10k") {
    workload = make_scale_10k(ctx);
  } else if (args.workload == "service_packed") {
    workload = make_service_packed(ctx);
  } else {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  catalyst::obs::Tracer& tracer = catalyst::obs::Tracer::instance();
  const bool trace = args.trace == 1;

  Layers setup_layers;
  std::vector<double> setup_s;
  try {
    for (int i = 0; i < kSetups; ++i) {
      tracer.enable(trace);
      const Clock::time_point start = Clock::now();
      workload->setup(setup_layers);
      setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
    return 1;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ok_ops = 0;
  std::vector<double> untraced_ms;  // Every op when --trace 0.
  std::vector<double> traced_ms;
  Layers op_layers;
  const Clock::time_point start = Clock::now();
  while (ms_between(start, Clock::now()) < args.seconds * 1e3) {
    const bool traced = trace && attempted % 2 == 0;
    tracer.enable(traced);
    Layers layers;
    OpResult op;
    try {
      op = workload->op(layers, traced);
    } catch (const std::exception& e) {
      op.ok = false;
      op.failure = e.what();
    }
    attempted += 1;
    if (!op.ok) {
      failed += 1;
      std::cerr << "perfbench: op " << attempted << " failed: " << op.failure
                << "\n";
      continue;
    }
    ok_ops += 1;
    if (traced) {
      traced_ms.push_back(op.ms);
      op_layers.merge(layers);
    } else {
      untraced_ms.push_back(op.ms);
    }
  }
  tracer.enable(false);

  std::vector<Metric> metrics;
  if (trace) {
    double traced_total = 0.0;
    for (double ms : traced_ms) traced_total += ms;
    metrics = layer_metrics(op_layers, traced_ms.size(), setup_layers,
                            traced_total, quantile(untraced_ms, 0.5),
                            quantile(traced_ms, 0.5));
  } else {
    double op_seconds = 0.0;
    for (double ms : untraced_ms) op_seconds += ms / 1e3;
    const double analyses =
        static_cast<double>(ok_ops) * workload->analyses_per_op();
    metrics = {
        {"analyses_per_s", op_seconds > 0.0 ? analyses / op_seconds : 0.0,
         "1/s"},
        {"op_p90_ms", quantile(untraced_ms, 0.9), "ms"},
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  }

  std::cout << "perfbench: workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " nproc=" << std::thread::hardware_concurrency()
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " git_sha=" << args.git_sha << " ops=" << attempted
            << " traced_ops=" << traced_ms.size() << " setups=" << kSetups
            << " " << workload->describe() << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  const bool correct = failed == 0 && ok_ops > 0;
  std::cout << result_json(correct, attempted, failed, metrics) << std::endl;
  return 0;
}
