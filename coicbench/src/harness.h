// The CoIC benchmark harness: workload definitions, set-up, runs and the
// standalone layer replays, all through the library's public APIs.
//
// The harness measures; coicbench/run.py orchestrates runs and does the
// arithmetic (percentiles, ratios, the capacity ladder, span self time).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "federation/federation_pipeline.h"
#include "net/servers.h"
#include "spans.h"
#include "trace/workload.h"

namespace coicbench {

/// One named workload, replayed open loop on the sim clock. The loopback
/// probe of storm's traced run reuses the shape fields only.
struct WorkloadSpec {
  std::string name;
  std::uint32_t venues = 1;
  std::uint32_t mobiles_per_venue = 1;
  /// Operations in a measured run and the offered open-loop rate.
  std::size_t ops = 0;
  double rate_hz = 0;
  double handoff_probability = 0;
  /// Independent traces pooled into one run's outcome metrics.
  std::size_t subruns = 1;
  /// Sim workloads: the full pipeline configuration.
  coic::federation::FederationPipelineConfig config;
};

/// Returns false for an unknown name.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

/// Shared trace shape: 12 shared objects, Zipf 0.9, raster 32, models
/// 1..12 of 256 KiB + id * 8 KiB, one panorama video.
inline constexpr std::uint32_t kObjects = 12;
inline constexpr std::uint64_t kVideoId = 7;
[[nodiscard]] coic::Bytes ModelBytes(std::uint64_t model_id);

/// Mixed AR trace (6:3:1) placed over the workload's venues and re-timed
/// as one Poisson stream at `rate_hz`. Deterministic in `seed`.
std::vector<coic::trace::PlacedRecord> SynthesizeTrace(
    const WorkloadSpec& spec, std::uint64_t seed, std::size_t ops,
    double rate_hz);

/// Per-task outcome tally plus the correctness gate's checks.
struct TaskTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;  ///< Successful outcomes only.
};

struct RunResult {
  double synth_s = 0;
  double register_s = 0;
  double setup_s = 0;  ///< Synthesis + construction + registration + enqueue.
  double run_wall_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::map<std::string, TaskTally> tasks;  ///< "recognition" / "render" / "panorama".
  std::uint64_t edge_hits = 0;
  std::uint64_t peer_hits = 0;
  std::uint64_t recog_correct = 0;
  std::uint64_t recog_result_bytes = 0;
  /// Completions per second over the second half of the arrival window
  /// (loopback probe: completions per wall second of its closed loop).
  double achieved_hz = 0;
  /// Sum of per-outcome FNV-1a hashes (order-free): equal across
  /// repetitions of a seed and across worker counts.
  std::uint64_t outcome_digest = 0;
  std::vector<std::string> violations;
  /// Counter deltas over the run, edge/client paths summed over venues.
  std::map<std::string, std::uint64_t> counters;
  /// Loopback probe only: call latency split by result source.
  std::vector<double> live_edge_hit_us;
  std::vector<double> live_cloud_miss_us;
};

/// A constructed sim pipeline with its trace enqueued.
struct SimSetup {
  std::unique_ptr<coic::federation::FederationPipeline> pipeline;
  std::vector<coic::trace::PlacedRecord> trace;
};

/// Builds the trace and the pipeline (timed into `result`).
SimSetup SetUpSim(const WorkloadSpec& spec,
                  const coic::federation::FederationPipelineConfig& config,
                  std::uint64_t seed, std::size_t ops, double rate_hz,
                  RunResult* result, SpanRecorder* spans);

/// RunOpenLoop plus outcome checks and counter deltas.
void RunSim(SimSetup& setup, RunResult* result, SpanRecorder* spans);

/// The live deployment: servers, connected clients and the trace.
struct LiveSetup {
  std::unique_ptr<coic::net::CloudServer> cloud;
  std::unique_ptr<coic::net::EdgeServer> edge;
  std::vector<std::unique_ptr<coic::net::LiveClient>> clients;
  std::vector<coic::trace::PlacedRecord> trace;
  std::map<std::uint64_t, coic::Digest128> digests;
  LiveSetup() = default;
  LiveSetup(const LiveSetup&) = delete;
  LiveSetup& operator=(const LiveSetup&) = delete;
  ~LiveSetup();
};

/// Starts the servers and connects one client per mobile; false (with a
/// violation recorded) when a socket step fails.
bool SetUpLive(const WorkloadSpec& spec, std::uint64_t seed, std::size_t ops,
               std::unique_ptr<LiveSetup>* setup, RunResult* result,
               SpanRecorder* spans);

/// Each client replays its share of the trace on its own thread.
void RunLive(LiveSetup& setup, RunResult* result, SpanRecorder* spans);

/// Host timings of the standalone layer replays (trace mode).
struct LayerReplay {
  std::uint64_t vision_calls = 0;
  double vision_generate_us = 0;  ///< Mean per call.
  double vision_extract_us = 0;
  double render_load_model_us = 0;
  double render_panorama_us = 0;
  std::uint64_t render_panorama_frames = 0;
  double proto_recog_req_us = 0;
  double proto_render_res_us = 0;
  double proto_pano_res_us = 0;
  double proto_summary_us = 0;
  double cache_lookup_us = 0;
  double cache_insert_us = 0;
  std::vector<std::string> violations;
};

/// Replays the trace through vision, render, proto and cache on their
/// own. `registry` supplies model bytes; `summary_source` (may be null)
/// is the edge cache whose summary the proto replay encodes.
LayerReplay ReplayLayers(const std::vector<coic::trace::PlacedRecord>& trace,
                         const coic::cache::IcCacheConfig& cache_config,
                         const coic::vision::FeatureExtractorConfig& extractor,
                         const coic::render::ModelRegistry& registry,
                         const coic::cache::IcCache* summary_source,
                         std::uint64_t recog_result_bytes,
                         SpanRecorder* spans);

}  // namespace coicbench
