// Repository benchmark: one closed-loop client per process, every
// answer checked against an independent reference.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//                    [--data DIR] [--trace-dir DIR]
//   perfbench --make-counts FILE
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print every
// metric with its unit and sample count.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/engine.h"
#include "families.h"
#include "host_probe.h"
#include "io/json.h"
#include "layers.h"
#include "report.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using swfomc::api::Engine;
using swfomc::api::Method;
using swfomc::api::Outcome;
using swfomc::logic::Formula;

// Set-ups of grounded_count and ptime_sweep (~0.1 ms each) are timed in
// a row before the first op, where a user pays them; HostProbe scaling
// takes the place of sampling them over the whole run. serve_replay's
// set-up is the measured server itself (see RunServe).
constexpr int kCheapSetupRepeats = 101;
constexpr int kServeSetupRepeats = 3;
// Probe samples behind the scale of the set-ups before the first pass.
constexpr int kInitialProbeSamples = 9;

/// Times `prepare` `repeats` times, each time multiplied by `scale` (see
/// HostProbe), and keeps the last result.
template <typename Prepared, typename Fn>
Prepared TimedSetup(int repeats, Fn prepare, double scale,
                    std::vector<double>* seconds) {
  std::optional<Prepared> prepared;
  for (int i = 0; i < repeats; ++i) {
    Clock::time_point start = Clock::now();
    prepared.emplace(prepare());
    seconds->push_back(scale * SecondsBetween(start, Clock::now()));
  }
  return std::move(*prepared);
}

/// The end-to-end metrics every workload prints. Rates are per pass:
/// the ops (and answers) of one pass over PassSeconds of the per-op
/// latencies; `latencies` and `cold` are every sample of the run. Every
/// time is already scaled to the reference host speed.
void AddEndToEnd(RunResult* result, std::uint64_t pass_ops,
                 std::uint64_t pass_answers,
                 const std::vector<std::vector<double>>& per_op,
                 const std::vector<double>& latencies,
                 const std::vector<double>& cold,
                 const std::vector<double>& setup, const HostProbe& probe) {
  double pass_seconds = PassSeconds(per_op);
  std::uint64_t passes = per_op.empty() ? 0 : per_op[0].size();
  result->metrics.push_back(
      {"ops_per_s", pass_ops / pass_seconds, "1/s", pass_ops * passes, 0});
  result->metrics.push_back({"answers_per_s", pass_answers / pass_seconds,
                             "1/s", pass_answers * passes, 0});
  result->metrics.push_back(PercentileMetric("latency_p50_ms", latencies, 0.5));
  result->metrics.push_back(PercentileMetric("latency_p90_ms", latencies, 0.9));
  result->metrics.push_back(PercentileMetric("cold_p50_ms", cold, 0.5));
  result->metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1, 0});
  Metric setup_metric = PercentileMetric("setup_s", setup, 0.5);
  setup_metric.value /= 1e3;
  setup_metric.unit = "s";
  result->metrics.push_back(setup_metric);
  result->host_scale = Percentile(probe.scales(), 0.5);
}

/// What whole passes over a workload's ops produced: each op's first
/// answer (later answers must equal it), how many runs gave it, and every
/// latency, per op and in run order.
template <typename Answer>
struct Passes {
  std::vector<std::optional<Answer>> answers;
  std::vector<std::uint64_t> runs;
  std::vector<std::vector<double>> per_op;
  std::vector<double> latencies;
};

/// One untimed pass before timing starts, so caches, the allocator and
/// the clock rate of the shared host have settled; its answers are
/// checked by the timed passes.
template <typename Call>
void WarmUp(std::size_t count, Call call) {
  for (std::size_t i = 0; i < count; ++i) {
    try {
      call(i);
    } catch (const std::exception&) {
      // The same op fails again, and is counted, in the timed passes.
    }
  }
}

/// The probe's scale for set-ups timed before the first pass, from a
/// window of samples taken just before them.
double InitialScale(HostProbe* probe) {
  for (int i = 0; i < kInitialProbeSamples; ++i) probe->Sample();
  return probe->TakeScale();
}

/// Replays whole passes over `count` ops until `seconds` have elapsed,
/// sampling `probe` between ops. Each pass's latencies are multiplied by
/// the probe's scale for that pass, which is then handed to `between()`,
/// called untimed after the pass. `call(i)` runs op i and returns its
/// answer, or nullopt when the op failed (a non-exact outcome, an error
/// reply); an exception fails it too.
template <typename Answer, typename Call, typename Between>
Passes<Answer> RunPasses(std::size_t count, double seconds, Call call,
                         Between between, HostProbe* probe,
                         RunResult* result) {
  Passes<Answer> passes;
  passes.answers.resize(count);
  passes.runs.assign(count, 0);
  passes.per_op.resize(count);
  Clock::time_point start = Clock::now();
  std::vector<std::pair<std::size_t, double>> pass_latencies;
  while (SecondsBetween(start, Clock::now()) < seconds) {
    pass_latencies.clear();
    for (std::size_t i = 0; i < count; ++i) {
      ++result->attempted;
      probe->MaybeSample();
      Clock::time_point begin = Clock::now();
      std::optional<Answer> answer;
      try {
        answer = call(i);
      } catch (const std::exception& error) {
        std::cerr << "op " << i << " failed: " << error.what() << "\n";
      }
      double latency = SecondsBetween(begin, Clock::now());
      if (!answer.has_value()) {
        ++result->failed;
        continue;
      }
      pass_latencies.emplace_back(i, latency);
      if (!passes.answers[i].has_value()) {
        passes.answers[i] = std::move(answer);
        ++passes.runs[i];
      } else if (*answer != *passes.answers[i]) {
        ++result->failed;
        ++result->mismatches;
      } else {
        ++passes.runs[i];
      }
    }
    double scale = probe->TakeScale();
    for (const auto& [i, latency] : pass_latencies) {
      passes.latencies.push_back(scale * latency);
      passes.per_op[i].push_back(scale * latency);
    }
    Clock::time_point pause = Clock::now();
    between(scale);
    start += Clock::now() - pause;
  }
  return passes;
}

/// Checks each op's answer against `expected(i)`; a wrong answer fails
/// every run that gave it.
template <typename Answer, typename Expected>
void CheckAnswers(const Passes<Answer>& passes, Expected expected,
                  RunResult* result) {
  for (std::size_t i = 0; i < passes.answers.size(); ++i) {
    if (passes.answers[i].has_value() && *passes.answers[i] != expected(i)) {
      std::cerr << "wrong answer from op " << i << "\n";
      result->failed += passes.runs[i];
      result->mismatches += passes.runs[i];
    }
  }
}

struct PreparedPass {
  std::vector<Op> pass;
  std::vector<PreparedOp> ops;  // point into `pass`
};

PreparedPass PreparePass(const std::vector<Family>& families,
                         std::uint64_t seed) {
  PreparedPass prepared;
  prepared.pass = MakePass(families, seed);
  prepared.ops = PrepareOps(prepared.pass, 1);
  return prepared;
}

// grounded_count: Engine::WFOMC(kAuto) on each op of the pass. No op is
// cached, so every op is also a cold one.
RunResult RunGrounded(std::uint64_t seed, double seconds,
                      const std::string& data_dir) {
  std::vector<double> setup;
  HostProbe probe;
  auto prepare = [&] { return PreparePass(GroundedFamilies(), seed); };
  PreparedPass prepared = TimedSetup<PreparedPass>(
      kCheapSetupRepeats, prepare, InitialScale(&probe), &setup);
  const std::vector<PreparedOp>& ops = prepared.ops;
  auto count = [&](std::size_t i) -> std::optional<BigRational> {
    Engine::Result counted = ops[i].engine->WFOMC(
        ops[i].formula, ops[i].op->family->sizes[0], Method::kAuto);
    if (counted.outcome != Outcome::kExact) return std::nullopt;
    return std::move(counted.value);
  };
  WarmUp(ops.size(), count);
  RunResult result;
  Passes<BigRational> passes =
      RunPasses<BigRational>(ops.size(), seconds, count, [](double) {},
                             &probe, &result);
  std::map<std::string, CountTable> tables =
      LoadCountTables(data_dir + "/grounded_counts.txt");
  CheckAnswers(passes, [&](std::size_t i) {
    const Op& op = *ops[i].op;
    return ReferenceValue(*op.family, op.family->sizes[0], op.weights, tables);
  }, &result);
  AddEndToEnd(&result, ops.size(), ops.size(), passes.per_op,
              passes.latencies, passes.latencies, setup, probe);
  return result;
}

// ptime_sweep: Engine::WFOMCSweep(kAuto) over each op's window.
RunResult RunSweep(std::uint64_t seed, double seconds) {
  std::vector<double> setup;
  HostProbe probe;
  auto prepare = [&] { return PreparePass(SweepFamilies(), seed); };
  PreparedPass prepared = TimedSetup<PreparedPass>(
      kCheapSetupRepeats, prepare, InitialScale(&probe), &setup);
  const std::vector<PreparedOp>& ops = prepared.ops;
  std::uint64_t pass_points = 0;
  for (const Op& op : prepared.pass) {
    pass_points += op.family->sizes[1] - op.family->sizes[0] + 1;
  }
  using Values = std::vector<BigRational>;
  auto sweep = [&](std::size_t i) -> std::optional<Values> {
    const std::vector<std::uint64_t>& window = ops[i].op->family->sizes;
    Engine::SweepResult swept = ops[i].engine->WFOMCSweep(
        ops[i].formula, window[0], window[1], Method::kAuto);
    if (swept.outcome != Outcome::kExact) return std::nullopt;
    Values values;
    for (Engine::SweepPoint& point : swept.points) {
      values.push_back(std::move(point.value));
    }
    return values;
  };
  WarmUp(ops.size(), sweep);
  RunResult result;
  Passes<Values> passes =
      RunPasses<Values>(ops.size(), seconds, sweep, [](double) {}, &probe,
                        &result);
  CheckAnswers(passes, [&](std::size_t i) {
    const Op& op = *ops[i].op;
    return ReferenceSweep(*op.family, op.family->sizes[0], op.family->sizes[1],
                          op.weights);
  }, &result);
  AddEndToEnd(&result, ops.size(), pass_points, passes.per_op,
              passes.latencies, passes.latencies, setup, probe);
  return result;
}

struct PreparedServer {
  ServeScript script;
  std::unique_ptr<swfomc::serve::Server> server;
};

// serve_replay: one Server per pass fed the script through HandleLine by a
// single closed-loop client; each reply is serialized as the daemon would.
RunResult RunServe(std::uint64_t seed, double seconds,
                   const std::string& data_dir) {
  std::vector<double> setup;
  HostProbe probe;
  auto prepare = [&] {
    PreparedServer fresh{MakeServeScript(seed), nullptr};
    swfomc::serve::ServerOptions options;
    options.max_circuits = fresh.script.max_circuits;
    fresh.server = std::make_unique<swfomc::serve::Server>(options);
    for (const ServeLine& line : fresh.script.prime) {
      fresh.server->HandleLine(line.text);
    }
    return fresh;
  };
  // The server is set up afresh, and timed, a few times before the warm-up
  // pass and again before every timed pass, each old one destroyed before
  // the next is built; the last one serves the pass. So set-up is sampled
  // over the whole run like the ops, and no second server is ever resident
  // beside the measured one: peak_rss_mb is one serving process's
  // footprint.
  PreparedServer prepared;
  auto fresh_server = [&](double scale) {
    for (int i = 0; i < kServeSetupRepeats; ++i) {
      prepared = PreparedServer{};
      prepared = TimedSetup<PreparedServer>(1, prepare, scale, &setup);
    }
  };
  fresh_server(InitialScale(&probe));
  const std::vector<ServeLine>& lines = prepared.script.lines;
  std::uint64_t pass_vectors = 0;
  for (const ServeLine& line : lines) pass_vectors += line.batch.size();

  // Request class of each answered request, in run order: a scrape, a
  // warm hit or a cache miss.
  enum Class : char { kScrape, kWarm, kCold };
  std::vector<Class> classes;
  using Answers = std::vector<std::string>;
  auto handle = [&](std::size_t i) -> std::optional<Answers> {
    swfomc::serve::Server::Reply reply =
        prepared.server->HandleLine(lines[i].text);
    std::string wire = reply.json.Dump(-1);
    std::optional<Answers> answers;
    if (lines[i].scrape) {
      const swfomc::io::JsonValue* status = Member(reply.json, "status");
      if (status != nullptr && status->string == "ok" && !wire.empty()) {
        answers.emplace();
      }
      classes.push_back(kScrape);
    } else {
      answers = ReplyAnswers(reply.json);
      if (answers.has_value() && answers->size() != lines[i].batch.size()) {
        answers.reset();
      }
      const swfomc::io::JsonValue* cached = Member(reply.json, "cached");
      classes.push_back(cached != nullptr && cached->boolean ? kWarm
                                                             : kCold);
    }
    if (!answers.has_value()) classes.pop_back();
    return answers;
  };
  WarmUp(lines.size(), handle);
  classes.clear();
  fresh_server(InitialScale(&probe));
  RunResult result;
  Passes<Answers> passes = RunPasses<Answers>(lines.size(), seconds, handle,
                                              fresh_server, &probe, &result);
  std::vector<double> warm;
  std::vector<double> cold;
  for (std::size_t k = 0; k < classes.size(); ++k) {
    if (classes[k] != kScrape) {
      (classes[k] == kWarm ? warm : cold).push_back(passes.latencies[k]);
    }
  }

  std::map<std::string, CountTable> tables =
      LoadCountTables(data_dir + "/grounded_counts.txt");
  std::map<std::string, std::string> known;  // weight vectors repeat
  CheckAnswers(passes, [&](std::size_t i) {
    const ServeLine& line = lines[i];
    Answers expected;
    for (const WeightVector& weights : line.batch) {
      std::string key = std::string(line.family->name) + " " +
                        std::to_string(line.n);
      for (const RelationWeight& weight : weights) {
        key += " " + weight.positive.ToString() + " " +
               weight.negative.ToString();
      }
      auto [it, inserted] = known.emplace(key, "");
      if (inserted) {
        it->second =
            ReferenceValue(*line.family, line.n, weights, tables).ToString();
      }
      expected.push_back(it->second);
    }
    return expected;
  }, &result);
  AddEndToEnd(&result, lines.size(), pass_vectors, passes.per_op, warm, cold,
              setup, probe);
  return result;
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

void Print(const std::string& workload, const RunResult& result) {
  for (const Metric& metric : result.metrics) {
    std::cout << workload << "  " << metric.name << " = "
              << Number(metric.value) << " " << metric.unit;
    if (!metric.reached) {
      std::cout << "  (not reached by this workload)\n";
      continue;
    }
    std::cout << "  (samples=" << metric.samples;
    if (metric.beyond > 0) std::cout << ", beyond=" << metric.beyond;
    std::cout << ")\n";
  }
  if (result.host_scale > 0) {
    std::cout << workload << "  host_scale = " << Number(result.host_scale)
              << "  (median of the run's HostProbe scales: reference "
                 "probe time over probe time; every time above is "
                 "multiplied by its pass's scale)\n";
  }
  std::cout << workload << "  error_rate = "
            << Number(result.attempted == 0
                          ? 1.0
                          : static_cast<double>(result.failed) /
                                static_cast<double>(result.attempted))
            << "  (failed=" << result.failed
            << ", attempted=" << result.attempted << ")\n";
  std::ostringstream json;
  json << "{\"correct\": " << (result.mismatches == 0 ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    json << (i > 0 ? ", " : "") << "\"" << metric.name
         << "\": {\"value\": " << Number(metric.value) << ", \"unit\": \""
         << metric.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

int Usage() {
  std::cerr << "usage: perfbench --workload "
               "grounded_count|ptime_sweep|serve_replay "
               "--seed N --seconds S --trace 0|1 [--data DIR] "
               "[--trace-dir DIR]\n"
               "       perfbench --make-counts FILE\n";
  return 64;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage();
  try {
    if (args.count("make-counts") != 0) {
      MakeCountTables(args["make-counts"]);
      return 0;
    }
    for (const char* required : {"workload", "seed", "seconds", "trace"}) {
      if (args.count(required) == 0) return Usage();
    }
    std::string workload = args["workload"];
    std::uint64_t seed = std::stoull(args["seed"]);
    double seconds = std::stod(args["seconds"]);
    std::string data_dir = args.count("data") != 0 ? args["data"]
                                                   : "perfbench/data";
    RunResult result;
    if (args["trace"] == "1") {
      std::string trace_out =
          (args.count("trace-dir") != 0 ? args["trace-dir"]
                                        : ".bench_build/traces") +
          "/trace-" + workload + "-" + args["seed"] + ".jsonl";
      result = RunTraced(workload, seed, seconds, data_dir, trace_out);
    } else if (args["trace"] != "0") {
      return Usage();
    } else if (workload == "grounded_count") {
      result = RunGrounded(seed, seconds, data_dir);
    } else if (workload == "ptime_sweep") {
      result = RunSweep(seed, seconds);
    } else if (workload == "serve_replay") {
      result = RunServe(seed, seconds, data_dir);
    } else {
      return Usage();
    }
    Print(workload, result);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
