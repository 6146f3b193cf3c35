// coicbench — the measurement binary behind coicbench/run.py.
//
//   coicbench --workload <storm|lossy|metro> --seed N --mode main
//             [--seconds S]
//       Pools the workload's fixed number of sub-runs (one trace each),
//       then repeats them for host timing until S seconds have passed.
//       A repeated sim run must reproduce its outcomes exactly.
//   coicbench ... --mode rung --rate HZ --ops N
//       One set-up + run at an overridden offered rate and length (a
//       capacity-ladder rung).
//   coicbench ... --mode trace --spans-out FILE
//       The traced run: untraced reference, a run with the request
//       tracer on, and the standalone layer replays (on storm also a
//       loopback TCP probe of the net layer), with host-clock spans
//       written to FILE.
//
// Prints one JSON object on stdout; exits 2 on bad arguments.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "harness.h"
#include "json.h"
#include "obs/trace.h"

namespace coicbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string mode = "main";
  double seconds = 20;
  double rate_hz = 0;
  std::size_t ops = 0;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--mode") a->mode = v;
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--rate") a->rate_hz = std::atof(v);
    else if (k == "--ops") a->ops = std::strtoull(v, nullptr, 10);
    else if (k == "--spans-out") a->spans_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty();
}

/// Peak resident set of the process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Restarts the VmHWM peak from the current resident set, so that each
/// run's own peak can be read; false where the kernel does not allow it.
/// Freed heap is trimmed first, or memory retained from earlier runs
/// would count against later ones.
bool ResetPeakRss() {
  malloc_trim(0);  // Hand back what earlier runs freed.
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

void WriteManifest(JsonWriter& j, const Args& a, const WorkloadSpec& spec) {
  j.Key("manifest").BeginObject();
  j.FieldStr("build_type", COICBENCH_BUILD_TYPE);
  j.FieldStr("compiler", COICBENCH_COMPILER);
  j.FieldInt("nproc", std::thread::hardware_concurrency());
  j.FieldStr("workload", spec.name);
  j.FieldInt("seed", a.seed);
  j.FieldInt("workers", spec.config.execution.workers);
  j.EndObject();
}

void WriteResult(JsonWriter& j, const RunResult& r, bool latencies) {
  j.BeginObject();
  j.Field("synth_s", r.synth_s)
      .Field("register_s", r.register_s)
      .Field("setup_s", r.setup_s)
      .Field("run_wall_s", r.run_wall_s)
      .FieldInt("attempted", r.attempted)
      .FieldInt("completed", r.completed)
      .FieldInt("failed", r.failed)
      .FieldInt("edge_hits", r.edge_hits)
      .FieldInt("peer_hits", r.peer_hits)
      .FieldInt("recog_correct", r.recog_correct)
      .Field("achieved_hz", r.achieved_hz)
      .FieldStr("outcome_digest", std::to_string(r.outcome_digest));
  j.Key("tasks").BeginObject();
  for (const auto& [name, t] : r.tasks) {
    j.Key(name).BeginObject();
    j.FieldInt("attempted", t.attempted).FieldInt("failed", t.failed);
    if (latencies) j.Key("latency_ms").NumArray(t.latency_ms);
    j.EndObject();
  }
  j.EndObject();
  j.Key("live_edge_hit_us").NumArray(r.live_edge_hit_us);
  j.Key("live_cloud_miss_us").NumArray(r.live_cloud_miss_us);
  j.Key("counters").BeginObject();
  for (const auto& [k, v] : r.counters) j.FieldInt(k, v);
  j.EndObject();
  j.Key("violations").BeginArray();
  for (const auto& v : r.violations) j.Str(v);
  j.EndArray();
  j.EndObject();
}

/// One set-up + run of the workload; the set-up is torn down on return.
RunResult SetUpAndRun(const WorkloadSpec& spec,
                      const coic::federation::FederationPipelineConfig& config,
                      std::uint64_t seed, std::size_t ops, double rate_hz,
                      SpanRecorder* spans) {
  RunResult r;
  SimSetup setup = SetUpSim(spec, config, seed, ops, rate_hz, &r, spans);
  RunSim(setup, &r, spans);
  return r;
}

/// Sub-run k's trace seed: a run pools `spec.subruns` independent traces
/// so that its tail percentiles rest on enough samples.
std::uint64_t SubSeed(std::uint64_t seed, std::size_t k) {
  return seed * 1000 + k;
}

/// Folds one sub-run into the pooled result.
void Pool(RunResult* into, const RunResult& r) {
  into->attempted += r.attempted;
  into->completed += r.completed;
  into->failed += r.failed;
  for (const auto& [name, t] : r.tasks) {
    TaskTally& dst = into->tasks[name];
    dst.attempted += t.attempted;
    dst.failed += t.failed;
    dst.latency_ms.insert(dst.latency_ms.end(), t.latency_ms.begin(),
                          t.latency_ms.end());
  }
  into->edge_hits += r.edge_hits;
  into->peer_hits += r.peer_hits;
  into->recog_correct += r.recog_correct;
  into->achieved_hz += r.achieved_hz;  // Averaged by the caller.
  into->outcome_digest += r.outcome_digest;
  into->violations.insert(into->violations.end(), r.violations.begin(),
                          r.violations.end());
  for (const auto& [k, v] : r.counters) into->counters[k] += v;
}

// Set-ups timed without a run after them, on top of each run's own.
constexpr int kSetupOnlyReps = 10;
// Shape of storm's traced loopback replay (the net layer): one venue,
// one closed-loop client thread per mobile.
constexpr std::uint32_t kLiveProbeClients = 3;
constexpr std::size_t kLiveProbeOps = 3000;

int MainMode(const Args& a, const WorkloadSpec& spec, JsonWriter& j) {
  std::vector<double> setup_only;
  for (int i = 0; i < kSetupOnlyReps; ++i) {
    RunResult r;
    SetUpSim(spec, spec.config, SubSeed(a.seed, 0), spec.ops, spec.rate_hz,
             &r, nullptr);
    setup_only.push_back(r.setup_s);
  }

  // The first `subruns` runs (one per sub-seed) are pooled for the
  // outcome metrics; further runs, until `seconds` have passed, repeat
  // sub-seeds for host timing and must reproduce their outcomes.
  const auto start = std::chrono::steady_clock::now();
  std::vector<RunResult> reps;
  std::vector<double> rep_peak_mb;
  RunResult pooled;
  while (reps.size() < spec.subruns ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
                 .count() < a.seconds) {
    const std::size_t k = reps.size() % spec.subruns;
    const bool peak_reset = ResetPeakRss();
    RunResult r = SetUpAndRun(spec, spec.config, SubSeed(a.seed, k), spec.ops,
                              spec.rate_hz, nullptr);
    rep_peak_mb.push_back(peak_reset ? PeakRssMb() : 0);
    if (reps.size() < spec.subruns) {
      Pool(&pooled, r);
    } else if (r.outcome_digest != reps[k].outcome_digest) {
      pooled.violations.push_back("repeated run of sub-seed " +
                                  std::to_string(k) + " changed its outcomes");
    }
    reps.push_back(std::move(r));
  }
  pooled.achieved_hz /= static_cast<double>(spec.subruns);

  j.Key("setup_only_s").NumArray(setup_only);
  j.Key("reps").BeginArray();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RunResult& r = reps[i];
    j.BeginObject()
        .Field("peak_rss_mb", rep_peak_mb[i])
        .Field("setup_s", r.setup_s)
        .Field("run_wall_s", r.run_wall_s)
        .FieldInt("completed", r.completed)
        .FieldStr("outcome_digest", std::to_string(r.outcome_digest))
        .EndObject();
  }
  j.EndArray();
  j.Key("result");
  WriteResult(j, pooled, /*latencies=*/true);
  return 0;
}

int RungMode(const Args& a, const WorkloadSpec& spec, JsonWriter& j) {
  const RunResult r = SetUpAndRun(spec, spec.config, SubSeed(a.seed, 0),
                                  a.ops ? a.ops : spec.ops,
                                  a.rate_hz > 0 ? a.rate_hz : spec.rate_hz,
                                  nullptr);
  j.Field("offered_hz", a.rate_hz > 0 ? a.rate_hz : spec.rate_hz);
  j.Key("result");
  WriteResult(j, r, /*latencies=*/true);
  return 0;
}

void WriteSpans(const SpanRecorder& spans, const std::string& path) {
  std::ofstream out(path);
  out << "{\"spans\":[";
  const auto& all = spans.spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    if (i) out << ',';
    out << "[\"" << s.name << "\"," << s.start_ns << ',' << s.end_ns << ','
        << s.parent << ',' << s.request << ']';
  }
  out << "]}\n";
}

int TraceMode(const Args& a, const WorkloadSpec& spec, JsonWriter& j) {
  const std::uint64_t seed = SubSeed(a.seed, 0);
  SpanRecorder spans;
  spans.Open("bench.trace_run");
  RunResult untraced;
  LayerReplay layers;
  j.Key("phases").BeginObject();
  {
    SimSetup setup = SetUpSim(spec, spec.config, seed, spec.ops, spec.rate_hz,
                              &untraced, &spans);
    RunSim(setup, &untraced, &spans);
    layers = ReplayLayers(setup.trace, spec.config.cache, spec.config.extractor,
                          setup.pipeline->cloud().model_registry(),
                          &setup.pipeline->edge(0).cache(),
                          untraced.recog_result_bytes, &spans);
  }
  // The tracer's phase histograms live on shard 0 only, so the traced
  // pair runs single-thread (bit-identical to the sharded engine in
  // deterministic mode). Both runs of the pair come after the first
  // run, so neither pays the first touch of the process heap.
  auto config = spec.config;
  config.execution.workers = 1;
  RunResult reference, traced;
  {
    ScopedSpan span(&spans, "obs.reference_run");
    reference = SetUpAndRun(spec, config, seed, spec.ops, spec.rate_hz, nullptr);
  }
  config.trace.enabled = true;
  config.trace.span_capacity = 4096;
  config.trace.instant_capacity = 1024;
  {
    ScopedSpan span(&spans, "obs.traced_run");
    SimSetup setup =
        SetUpSim(spec, config, seed, spec.ops, spec.rate_hz, &traced, nullptr);
    RunSim(setup, &traced, nullptr);
    const coic::obs::RequestTracer& tracer = *setup.pipeline->tracer();
    for (int p = 0; p < coic::obs::kPhaseCount; ++p) {
      const auto phase = static_cast<coic::obs::Phase>(p);
      const auto& hist = tracer.phase_histogram(phase);
      j.Key(coic::obs::PhaseName(phase)).BeginObject();
      j.FieldInt("spans", hist.count());
      j.Field("p50_us", hist.count() ? hist.QuantileMicros(0.5) : 0.0);
      j.Field("p99_us", hist.count() ? hist.QuantileMicros(0.99) : 0.0);
      j.EndObject();
    }
  }
  const double reference_wall = reference.run_wall_s;
  const double traced_wall = traced.run_wall_s;
  for (const RunResult* r : {&reference, &traced}) {
    if (r->outcome_digest != untraced.outcome_digest) {
      untraced.violations.push_back(
          "single-thread reference or traced run changed the outcomes");
    }
    untraced.violations.insert(untraced.violations.end(),
                               r->violations.begin(), r->violations.end());
  }
  if (spec.name == "storm") {
    // The net layer (sockets, frame streams, server threads) is only
    // reachable through the live deployment; storm's traced run measures
    // it on a short one-venue replay over loopback TCP.
    WorkloadSpec probe_shape;
    probe_shape.mobiles_per_venue = kLiveProbeClients;
    RunResult probe;
    std::unique_ptr<LiveSetup> setup;
    ScopedSpan span(&spans, "net.live_probe");
    if (SetUpLive(probe_shape, seed, kLiveProbeOps, &setup, &probe, nullptr)) {
      RunLive(*setup, &probe, &spans);
    }
    untraced.live_edge_hit_us = std::move(probe.live_edge_hit_us);
    untraced.live_cloud_miss_us = std::move(probe.live_cloud_miss_us);
    for (const char* key : {"live.edge_cache_hits", "live.edge_cache_misses"}) {
      untraced.counters[key] = probe.counters[key];
    }
    untraced.violations.insert(untraced.violations.end(),
                               probe.violations.begin(), probe.violations.end());
  }
  j.EndObject();
  spans.Close();
  for (const auto& v : layers.violations) untraced.violations.push_back(v);

  j.Field("reference_wall_s", reference_wall);
  j.Field("traced_wall_s", traced_wall);
  j.Key("layers").BeginObject();
  j.FieldInt("vision_calls", layers.vision_calls)
      .Field("vision_generate_us", layers.vision_generate_us)
      .Field("vision_extract_us", layers.vision_extract_us)
      .Field("render_load_model_us", layers.render_load_model_us)
      .Field("render_panorama_us", layers.render_panorama_us)
      .FieldInt("render_panorama_frames", layers.render_panorama_frames)
      .Field("proto_recog_req_us", layers.proto_recog_req_us)
      .Field("proto_render_res_us", layers.proto_render_res_us)
      .Field("proto_pano_res_us", layers.proto_pano_res_us)
      .Field("proto_summary_us", layers.proto_summary_us)
      .Field("cache_lookup_us", layers.cache_lookup_us)
      .Field("cache_insert_us", layers.cache_insert_us);
  j.EndObject();
  j.Key("result");
  WriteResult(j, untraced, /*latencies=*/false);
  if (!a.spans_out.empty()) {
    WriteSpans(spans, a.spans_out);
    j.FieldStr("spans_file", a.spans_out);
    j.FieldInt("spans_recorded", spans.spans().size());
  }
  return 0;
}

}  // namespace
}  // namespace coicbench

int main(int argc, char** argv) {
  using namespace coicbench;
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: coicbench --workload <storm|lossy|metro> "
                 "--seed N --mode <main|rung|trace> [--seconds S] "
                 "[--rate HZ] [--ops N] [--spans-out FILE]\n");
    return 2;
  }
  JsonWriter j;
  j.BeginObject();
  WriteManifest(j, args, spec);
  int rc = 2;
  if (args.mode == "main") rc = MainMode(args, spec, j);
  else if (args.mode == "rung") rc = RungMode(args, spec, j);
  else if (args.mode == "trace") rc = TraceMode(args, spec, j);
  if (rc == 2) {
    std::fprintf(stderr, "coicbench: unknown mode '%s'\n", args.mode.c_str());
    return 2;
  }
  j.Field("peak_rss_mb", PeakRssMb());
  j.EndObject();
  std::printf("%s\n", j.str().c_str());
  return rc;
}
