// Workload definitions, set-up and measured runs (sim runs and the
// loopback probe of storm's traced run).
#include <algorithm>
#include <chrono>
#include <thread>
#include <tuple>

#include "common/frame.h"
#include "common/units.h"
#include "harness.h"
#include "render/panorama.h"

namespace coicbench {

using coic::Duration;
using coic::federation::FederationPipeline;
using coic::federation::FederationPipelineConfig;
using coic::trace::IcTaskType;
using coic::trace::PlacedRecord;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The paper's sharing setting at venue scale: flat full mesh,
/// summary-directed probing, 100 ms gossip, provisioned metro links,
/// unbounded caches, reliable transport, one worker.
FederationPipelineConfig StormConfig(std::uint32_t venues,
                                     std::uint32_t mobiles) {
  FederationPipelineConfig config;
  config.venues = venues;
  config.mobiles_per_venue = mobiles;
  config.topology = coic::federation::TopologyKind::kFullMesh;
  config.policy.kind = coic::federation::PeerSelectKind::kSummaryDirected;
  config.gossip_period = Duration::Millis(100);
  config.network = coic::core::NetworkCondition{coic::Bandwidth::Gbps(1),
                                                coic::Bandwidth::Mbps(200)};
  return config;
}

const char* TaskName(coic::proto::TaskKind task) {
  switch (task) {
    case coic::proto::TaskKind::kRecognition:
      return "recognition";
    case coic::proto::TaskKind::kRender:
      return "render";
    case coic::proto::TaskKind::kPanorama:
      return "panorama";
  }
  return "unknown";
}

coic::proto::TaskKind KindOf(IcTaskType type) {
  switch (type) {
    case IcTaskType::kRecognition:
      return coic::proto::TaskKind::kRecognition;
    case IcTaskType::kRender:
      return coic::proto::TaskKind::kRender;
    case IcTaskType::kPanorama:
      return coic::proto::TaskKind::kPanorama;
  }
  return coic::proto::TaskKind::kRecognition;
}

/// (venue, task, object id): what an outcome can be matched on. Every
/// trace record must come back as exactly one outcome with its key.
using OutcomeKey = std::tuple<std::uint32_t, int, std::uint64_t>;

OutcomeKey KeyOf(const PlacedRecord& p) {
  const auto& r = p.record;
  const std::uint64_t object = r.type == IcTaskType::kRecognition
                                   ? r.scene.scene_id
                               : r.type == IcTaskType::kRender ? r.model_id
                                                               : r.video_id;
  return {p.venue, static_cast<int>(KindOf(r.type)), object};
}

void Fnv(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xFF;
    *h *= 0x100000001B3ULL;
  }
}

/// Folds one outcome into the tallies and checks its payload size.
void Tally(const coic::core::RequestOutcome& o, RunResult* r) {
  ++r->completed;
  TaskTally& t = r->tasks[TaskName(o.task)];
  ++t.attempted;
  if (o.error) {
    ++t.failed;
    ++r->failed;
    return;
  }
  t.latency_ms.push_back(o.latency.millis());
  if (o.source == coic::proto::ResultSource::kEdgeCache) ++r->edge_hits;
  if (o.source == coic::proto::ResultSource::kPeerEdge) ++r->peer_hits;
  switch (o.task) {
    case coic::proto::TaskKind::kRecognition:
      if (o.correct) ++r->recog_correct;
      r->recog_result_bytes = std::max<std::uint64_t>(r->recog_result_bytes,
                                                      o.result_bytes);
      break;
    case coic::proto::TaskKind::kRender:
      if (o.result_bytes != ModelBytes(o.object_id)) {
        r->violations.push_back("render outcome for model " +
                                std::to_string(o.object_id) + " carries " +
                                std::to_string(o.result_bytes) + " bytes");
      }
      break;
    case coic::proto::TaskKind::kPanorama:
      if (o.result_bytes != coic::render::Panorama::kEncodedWireSize) {
        r->violations.push_back("panorama outcome carries " +
                                std::to_string(o.result_bytes) + " bytes");
      }
      break;
  }
}

/// Checks that the outcome keys are exactly the trace's keys.
void CheckOneOutcomePerOp(std::vector<OutcomeKey> issued,
                          std::vector<OutcomeKey> got, RunResult* r) {
  std::sort(issued.begin(), issued.end());
  std::sort(got.begin(), got.end());
  if (issued != got) {
    r->violations.push_back("outcomes do not match issued ops one to one (" +
                            std::to_string(got.size()) + " outcomes for " +
                            std::to_string(issued.size()) + " ops)");
  }
}

/// Sums per-venue / per-client counter paths ("edge.3.forwards" ->
/// "edge.forwards", "client.2.1.timeouts" -> "client.timeouts").
std::map<std::string, std::uint64_t> FoldCounters(
    const coic::obs::MetricsSnapshot& delta) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [path, value] : delta.values) {
    std::string key = path;
    for (const char* prefix : {"edge.", "client."}) {
      const std::string p = prefix;
      if (path.rfind(p, 0) != 0) continue;
      std::size_t pos = p.size();
      // Skip up to two numeric path components.
      for (int part = 0; part < 2; ++part) {
        std::size_t end = pos;
        while (end < path.size() && std::isdigit(
                                        static_cast<unsigned char>(path[end])))
          ++end;
        if (end == pos || end >= path.size() || path[end] != '.') break;
        pos = end + 1;
      }
      key = p + path.substr(pos);
    }
    out[key] += value;
  }
  return out;
}

}  // namespace

coic::Bytes ModelBytes(std::uint64_t model_id) {
  return coic::KB(256) + model_id * coic::KB(8);
}

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  spec->name = name;
  if (name == "storm") {
    spec->venues = 8;
    spec->mobiles_per_venue = 4;
    spec->ops = 10'000;
    spec->rate_hz = 1000;
    spec->subruns = 6;
    spec->config = StormConfig(8, 4);
    return true;
  }
  if (name == "lossy") {
    spec->venues = 8;
    spec->mobiles_per_venue = 4;
    spec->ops = 10'000;
    spec->rate_hz = 400;
    spec->subruns = 2;
    spec->config = StormConfig(8, 4);
    spec->config.transport =
        coic::federation::FederationTransportConfig::Lossy(0.01);
    return true;
  }
  if (name == "metro") {
    spec->venues = 64;
    spec->mobiles_per_venue = 2;
    spec->ops = 10'000;
    spec->rate_hz = 400;
    spec->handoff_probability = 0.2;
    spec->subruns = 4;
    spec->config = StormConfig(64, 2);
    spec->config.region.hierarchical = true;
    spec->config.region.regions = 0;  // auto: floor(sqrt(64)) = 8
    spec->config.delta_gossip = true;
    // Well below the per-edge working set, so eviction does real work.
    spec->config.cache.capacity_bytes = coic::MB(4);
    spec->config.execution.workers = 4;
    spec->config.execution.mode =
        coic::federation::ExecutionConfig::Mode::kDeterministic;
    return true;
  }
  return false;
}

std::vector<PlacedRecord> SynthesizeTrace(const WorkloadSpec& spec,
                                          std::uint64_t seed, std::size_t ops,
                                          double rate_hz) {
  coic::trace::ClusterWorkloadConfig wl;
  wl.venues = spec.venues;
  wl.handoff_probability = spec.handoff_probability;
  wl.placement_seed = seed * 0x9E3779B97F4A7C15ULL + 11;
  wl.base.users = spec.venues * spec.mobiles_per_venue;
  wl.base.objects = kObjects;
  wl.base.scene_raster = 32;
  wl.base.seed = seed;
  coic::trace::ClusterWorkloadGenerator gen(wl);
  std::vector<std::uint64_t> model_ids;
  for (std::uint64_t m = 1; m <= kObjects; ++m) model_ids.push_back(m);
  auto placed = gen.GenerateMixed(ops, model_ids, kVideoId);
  if (rate_hz > 0) {
    coic::trace::RetimeArrivals(std::span<PlacedRecord>(placed), rate_hz,
                                seed ^ 0xA5A5A5A5ULL);
  }
  return placed;
}

SimSetup SetUpSim(const WorkloadSpec& spec,
                  const FederationPipelineConfig& config, std::uint64_t seed,
                  std::size_t ops, double rate_hz, RunResult* result,
                  SpanRecorder* spans) {
  SimSetup setup;
  const auto start = std::chrono::steady_clock::now();
  {
    ScopedSpan span(spans, "trace.synthesize");
    setup.trace = SynthesizeTrace(spec, seed, ops, rate_hz);
  }
  result->synth_s = SecondsSince(start);
  ScopedSpan setup_span(spans, "core.setup");
  {
    ScopedSpan span(spans, "federation.construct");
    setup.pipeline = std::make_unique<FederationPipeline>(config);
  }
  const auto t = std::chrono::steady_clock::now();
  {
    ScopedSpan span(spans, "render.register");
    for (std::uint64_t m = 1; m <= kObjects; ++m) {
      setup.pipeline->RegisterModel(m, ModelBytes(m));
    }
  }
  result->register_s = SecondsSince(t);
  {
    ScopedSpan span(spans, "federation.enqueue");
    for (const auto& p : setup.trace) setup.pipeline->EnqueuePlaced(p);
  }
  result->setup_s = SecondsSince(start);
  result->attempted = setup.trace.size();
  return setup;
}

void RunSim(SimSetup& setup, RunResult* result, SpanRecorder* spans) {
  FederationPipeline& p = *setup.pipeline;
  const coic::obs::MetricsSnapshot before = p.MergedMetricsSnapshot();
  std::vector<coic::federation::FederationOutcome> outcomes;
  const auto start = std::chrono::steady_clock::now();
  {
    ScopedSpan span(spans, "netsim.run_open_loop");
    outcomes = p.RunOpenLoop();
  }
  result->run_wall_s = SecondsSince(start);
  const coic::obs::MetricsSnapshot delta =
      p.MergedMetricsSnapshot().DiffSince(before);

  std::vector<OutcomeKey> issued;
  issued.reserve(setup.trace.size());
  for (const auto& rec : setup.trace) issued.push_back(KeyOf(rec));
  std::vector<OutcomeKey> got;
  got.reserve(outcomes.size());
  // Order-free digest (a sum of per-outcome hashes): the sharded engine
  // returns outcomes in a different order than the single-thread one.
  std::uint64_t digest = 0;
  for (const auto& fo : outcomes) {
    const auto& o = fo.outcome;
    got.emplace_back(fo.venue, static_cast<int>(o.task), o.object_id);
    Tally(o, result);
    std::uint64_t h = 0xCBF29CE484222325ULL;
    Fnv(&h, fo.venue);
    Fnv(&h, o.object_id);
    Fnv(&h, static_cast<std::uint64_t>(o.task) << 8 |
                static_cast<std::uint64_t>(o.source) << 1 | o.error);
    Fnv(&h, static_cast<std::uint64_t>(o.latency.micros()));
    Fnv(&h, static_cast<std::uint64_t>(
                (fo.completed_at - coic::SimTime::Epoch()).micros()));
    digest += h;
  }
  result->outcome_digest = digest;
  CheckOneOutcomePerOp(std::move(issued), std::move(got), result);
  if (p.scheduler().pending() != 0) {
    result->violations.push_back("scheduler did not drain: " +
                                 std::to_string(p.scheduler().pending()) +
                                 " events pending");
  }
  if (delta.value("frame.copies") != 0) {
    result->violations.push_back(
        "frame.copies moved by " + std::to_string(delta.value("frame.copies")));
  }
  const auto& stats = p.open_loop_stats();
  // Achieved rate over the second half of the arrival window: in steady
  // state completions keep pace with arrivals, while the fixed
  // start-to-display latency would bias a whole-run average.
  coic::SimTime first_arrival = setup.trace.front().record.at;
  coic::SimTime last_arrival = first_arrival;
  for (const auto& rec : setup.trace) {
    first_arrival = std::min(first_arrival, rec.record.at);
    last_arrival = std::max(last_arrival, rec.record.at);
  }
  const double half = (last_arrival - first_arrival).seconds() / 2;
  const coic::SimTime window_start =
      first_arrival + Duration::Micros(static_cast<std::int64_t>(half * 1e6));
  std::uint64_t in_window = 0;
  for (const auto& fo : outcomes) {
    if (fo.completed_at >= window_start && fo.completed_at <= last_arrival) {
      ++in_window;
    }
  }
  result->achieved_hz = half > 0 ? static_cast<double>(in_window) / half : 0;

  result->counters = FoldCounters(delta);
  auto& c = result->counters;
  c["open_loop.events_fired"] = stats.events_fired;
  c["open_loop.max_inflight"] = stats.max_inflight;
  c["open_loop.gossip_rounds"] = stats.gossip_rounds;
  c["open_loop.sync_windows"] = stats.sync_windows;
  c["open_loop.cross_shard_messages"] = stats.cross_shard_messages;
  std::uint64_t max_worker = 0;
  for (std::uint64_t w : stats.per_worker_events_fired) {
    max_worker = std::max(max_worker, w);
  }
  c["open_loop.max_worker_events"] = max_worker;
  c["open_loop.workers"] = stats.per_worker_events_fired.size();
  std::uint64_t hits = 0, misses = 0, evictions = 0, insertions = 0,
                resident = 0;
  for (std::uint32_t v = 0; v < p.config().venues; ++v) {
    const auto& cache = p.edge(v).cache();
    hits += cache.stats().hits;
    misses += cache.stats().misses;
    evictions += cache.stats().evictions;
    insertions += cache.stats().insertions;
    resident += cache.bytes_used();
  }
  c["cache.hits"] = hits;
  c["cache.misses"] = misses;
  c["cache.evictions"] = evictions;
  c["cache.insertions"] = insertions;
  c["cache.resident_bytes"] = resident;
}

LiveSetup::~LiveSetup() {
  clients.clear();
  if (edge) edge->Stop();
  if (cloud) cloud->Stop();
}

bool SetUpLive(const WorkloadSpec& spec, std::uint64_t seed, std::size_t ops,
               std::unique_ptr<LiveSetup>* out, RunResult* result,
               SpanRecorder* spans) {
  auto setup = std::make_unique<LiveSetup>();
  const auto start = std::chrono::steady_clock::now();
  {
    ScopedSpan span(spans, "trace.synthesize");
    setup->trace = SynthesizeTrace(spec, seed, ops, /*rate_hz=*/0);
  }
  result->synth_s = SecondsSince(start);
  ScopedSpan setup_span(spans, "core.setup");
  coic::net::ServerOptions options;
  options.simulate_compute_delays = false;
  {
    ScopedSpan span(spans, "net.start_servers");
    setup->cloud = std::make_unique<coic::net::CloudServer>(
        options, coic::core::CloudService::Config{});
    if (const auto s = setup->cloud->Start(); !s.ok()) {
      result->violations.push_back("cloud start: " + s.ToString());
      return false;
    }
    setup->edge = std::make_unique<coic::net::EdgeServer>(
        options, coic::core::EdgeService::Config{},
        coic::net::SocketAddress{"127.0.0.1", setup->cloud->port()});
    if (const auto s = setup->edge->Start(); !s.ok()) {
      result->violations.push_back("edge start: " + s.ToString());
      return false;
    }
  }
  const auto t = std::chrono::steady_clock::now();
  {
    ScopedSpan span(spans, "render.register");
    for (std::uint64_t m = 1; m <= kObjects; ++m) {
      setup->cloud->service().RegisterModel(m, ModelBytes(m));
      setup->digests[m] =
          setup->cloud->service().model_registry().DigestFor(m).value();
    }
  }
  result->register_s = SecondsSince(t);
  {
    ScopedSpan span(spans, "net.connect_clients");
    for (std::uint32_t c = 0; c < spec.mobiles_per_venue; ++c) {
      coic::net::LiveClient::Options opts;
      opts.edge = {"127.0.0.1", setup->edge->port()};
      opts.client.user_id = c + 1;
      opts.client.first_request_id = static_cast<std::uint64_t>(c + 1) << 40;
      auto client = coic::net::LiveClient::Connect(opts);
      if (!client.ok()) {
        result->violations.push_back("client connect: " +
                                     client.status().ToString());
        return false;
      }
      setup->clients.push_back(std::move(client).value());
    }
  }
  result->setup_s = SecondsSince(start);
  result->attempted = setup->trace.size();
  *out = std::move(setup);
  return true;
}

void RunLive(LiveSetup& setup, RunResult* result, SpanRecorder* spans) {
  const std::size_t n_clients = setup.clients.size();
  struct ClientLog {
    std::vector<std::pair<std::size_t, coic::core::RequestOutcome>> done;
    std::uint64_t transport_errors = 0;
    std::vector<double> edge_hit_us;
    std::vector<double> cloud_miss_us;
  };
  std::vector<ClientLog> logs(n_clients);
  const std::uint64_t copies_before = coic::frame_stats().copies();
  const auto start = std::chrono::steady_clock::now();
  {
    ScopedSpan span(spans, "net.live_replay");
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < n_clients; ++c) {
      threads.emplace_back([&, c] {
        coic::net::LiveClient& client = *setup.clients[c];
        ClientLog& log = logs[c];
        for (std::size_t i = 0; i < setup.trace.size(); ++i) {
          const auto& r = setup.trace[i].record;
          if (r.user_id % n_clients != c) continue;
          const auto t0 = std::chrono::steady_clock::now();
          coic::Result<coic::core::RequestOutcome> out =
              coic::Status(coic::StatusCode::kInternal, "unset");
          switch (r.type) {
            case IcTaskType::kRecognition:
              out = client.Recognize(
                  r.scene,
                  coic::core::CloudService::LabelForScene(r.scene.scene_id));
              break;
            case IcTaskType::kRender:
              out = client.LoadModel(r.model_id, setup.digests.at(r.model_id));
              break;
            case IcTaskType::kPanorama:
              out = client.FetchPanorama(r.video_id, r.frame_index);
              break;
          }
          const double us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
          coic::core::RequestOutcome o;
          if (out.ok()) {
            o = std::move(out).value();
            if (!o.error) {
              if (o.source == coic::proto::ResultSource::kEdgeCache) {
                log.edge_hit_us.push_back(us);
              } else if (o.source == coic::proto::ResultSource::kCloud) {
                log.cloud_miss_us.push_back(us);
              }
            }
          } else {
            // A transport failure is a failed op, never a dropped one.
            ++log.transport_errors;
            o.task = KindOf(r.type);
            o.object_id = std::get<2>(KeyOf(setup.trace[i]));
            o.error = true;
          }
          log.done.emplace_back(i, std::move(o));
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  result->run_wall_s = SecondsSince(start);

  std::vector<OutcomeKey> issued;
  for (const auto& rec : setup.trace) issued.push_back(KeyOf(rec));
  std::vector<OutcomeKey> got;
  std::uint64_t transport_errors = 0;
  for (const auto& log : logs) {
    transport_errors += log.transport_errors;
    for (const auto& [i, o] : log.done) {
      got.emplace_back(setup.trace[i].venue, static_cast<int>(o.task),
                       o.object_id);
      Tally(o, result);
    }
    result->live_edge_hit_us.insert(result->live_edge_hit_us.end(),
                                    log.edge_hit_us.begin(),
                                    log.edge_hit_us.end());
    result->live_cloud_miss_us.insert(result->live_cloud_miss_us.end(),
                                      log.cloud_miss_us.begin(),
                                      log.cloud_miss_us.end());
  }
  CheckOneOutcomePerOp(std::move(issued), std::move(got), result);
  const std::uint64_t copies = coic::frame_stats().copies() - copies_before;
  if (copies != 0) {
    result->violations.push_back("frame.copies moved by " +
                                 std::to_string(copies));
  }
  result->achieved_hz =
      static_cast<double>(result->completed) / result->run_wall_s;
  const auto& stats = setup.edge->service().cache().stats();
  auto& c = result->counters;
  c["live.transport_errors"] = transport_errors;
  c["live.edge_cache_hits"] = stats.hits;
  c["live.edge_cache_misses"] = stats.misses;
  c["cache.hits"] = stats.hits;
  c["cache.misses"] = stats.misses;
  c["cache.evictions"] = stats.evictions;
  c["cache.insertions"] = stats.insertions;
  c["cache.resident_bytes"] = setup.edge->service().cache().bytes_used();
}

}  // namespace coicbench
