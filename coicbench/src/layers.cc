// Standalone layer replays: each trace record's work pushed through one
// module's public API at a time, timed per call on the host clock.
#include <optional>
#include <set>
#include <utility>

#include "cache/ic_cache.h"
#include "federation/summary.h"
#include "harness.h"
#include "proto/envelope.h"
#include "proto/messages.h"
#include "render/loader.h"
#include "render/panorama.h"
#include "vision/features.h"
#include "vision/image.h"

namespace coicbench {

using coic::trace::IcTaskType;

namespace {

/// Accumulates per-call span durations for one replayed operation.
struct CallTimer {
  SpanRecorder* spans;
  std::int64_t total_ns = 0;
  std::uint64_t calls = 0;

  template <typename Fn>
  void Time(const char* name, std::uint64_t request, Fn&& fn) {
    spans->Open(name, request);
    fn();
    total_ns += spans->Close();
    ++calls;
  }
  [[nodiscard]] double MeanUs() const {
    return calls == 0 ? 0 : static_cast<double>(total_ns) / 1e3 /
                                static_cast<double>(calls);
  }
};

/// Encode -> envelope decode -> typed payload decode, the full codec
/// round trip a frame makes between two actors.
template <typename M>
bool RoundTrip(coic::proto::MessageType type, std::uint64_t id, const M& msg) {
  const coic::ByteVec bytes = coic::proto::EncodeMessage(type, id, msg);
  auto env = coic::proto::DecodeEnvelope(bytes);
  if (!env.ok()) return false;
  return coic::proto::DecodePayloadAs<M>(env.value(), type).ok();
}

// Codec replays of the large results are capped: a 2.4 MB panorama round
// trip is ~3 buffer copies, and the per-call mean settles long before the
// whole trace is replayed.
constexpr std::size_t kMaxRenderResultReplays = 256;
constexpr std::size_t kMaxPanoramaResultReplays = 64;
constexpr int kSummaryReplays = 64;

}  // namespace

LayerReplay ReplayLayers(const std::vector<coic::trace::PlacedRecord>& trace,
                         const coic::cache::IcCacheConfig& cache_config,
                         const coic::vision::FeatureExtractorConfig& extractor_config,
                         const coic::render::ModelRegistry& registry,
                         const coic::cache::IcCache* summary_source,
                         std::uint64_t recog_result_bytes, SpanRecorder* spans) {
  LayerReplay out;
  // Descriptors computed by the vision replay feed the proto and cache
  // replays, so each layer sees exactly the keys the system saw.
  std::vector<std::vector<float>> descriptors(trace.size());

  {
    ScopedSpan layer(spans, "vision.replay");
    const coic::vision::FeatureExtractor extractor(extractor_config);
    CallTimer gen{spans}, ext{spans};
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto& r = trace[i].record;
      if (r.type != IcTaskType::kRecognition) continue;
      std::optional<coic::vision::SyntheticImage> image;
      gen.Time("vision.generate", i + 1, [&] {
        image.emplace(coic::vision::SyntheticImage::Generate(r.scene));
      });
      ext.Time("vision.extract", i + 1,
               [&] { descriptors[i] = extractor.Extract(*image); });
    }
    out.vision_calls = gen.calls;
    out.vision_generate_us = gen.MeanUs();
    out.vision_extract_us = ext.MeanUs();
  }

  {
    ScopedSpan layer(spans, "render.replay");
    CallTimer load{spans}, pano{spans};
    for (std::uint64_t m : registry.ModelIds()) {
      const auto bytes = registry.BytesFor(m);
      bool ok = false;
      load.Time("render.load_model", 0, [&] {
        ok = bytes.ok() && coic::render::LoadModel(bytes.value()).ok();
      });
      if (!ok) {
        out.violations.push_back("LoadModel failed for model " +
                                 std::to_string(m));
      }
    }
    std::set<std::pair<std::uint64_t, std::uint32_t>> frames;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto& r = trace[i].record;
      if (r.type != IcTaskType::kPanorama) continue;
      if (!frames.insert({r.video_id, r.frame_index}).second) continue;
      pano.Time("render.panorama", i + 1, [&] {
        const auto frame =
            coic::render::Panorama::Generate(r.video_id, r.frame_index);
        (void)frame.width();
      });
    }
    out.render_load_model_us = load.MeanUs();
    out.render_panorama_us = pano.MeanUs();
    out.render_panorama_frames = frames.size();
  }

  {
    ScopedSpan layer(spans, "proto.replay");
    using coic::proto::MessageType;
    CallTimer recog{spans}, render{spans}, pano{spans}, summary{spans};
    const coic::ByteVec pano_bytes(coic::render::Panorama::kEncodedWireSize,
                                   0x5A);
    bool ok = true;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto& r = trace[i].record;
      const std::uint64_t id = i + 1;
      if (r.type == IcTaskType::kRecognition) {
        coic::proto::RecognitionRequest req;
        req.user_id = r.user_id;
        req.app_id = r.app_id;
        req.frame_id = id;
        req.descriptor = coic::proto::FeatureDescriptor::ForVector(
            coic::proto::TaskKind::kRecognition, descriptors[i]);
        recog.Time("proto.recog_req", id, [&] {
          ok &= RoundTrip(MessageType::kRecognitionRequest, id, req);
        });
      } else if (r.type == IcTaskType::kRender &&
                 render.calls < kMaxRenderResultReplays) {
        coic::proto::RenderResult res;
        res.model_id = r.model_id;
        const auto bytes = registry.BytesFor(r.model_id);
        if (bytes.ok()) {
          res.model_bytes.assign(bytes.value().begin(), bytes.value().end());
        }
        render.Time("proto.render_res", id, [&] {
          ok &= RoundTrip(MessageType::kRenderResult, id, res);
        });
      } else if (r.type == IcTaskType::kPanorama &&
                 pano.calls < kMaxPanoramaResultReplays) {
        coic::proto::PanoramaResult res;
        res.video_id = r.video_id;
        res.frame_index = r.frame_index;
        res.width = 512;
        res.height = 256;
        res.frame = pano_bytes;
        pano.Time("proto.pano_res", id, [&] {
          ok &= RoundTrip(MessageType::kPanoramaResult, id, res);
        });
      }
    }
    if (summary_source != nullptr) {
      const auto wire = coic::federation::CacheSummary::Build(
                            0, 1, *summary_source,
                            coic::federation::BloomFilterConfig{})
                            .ToWire();
      for (int k = 0; k < kSummaryReplays; ++k) {
        summary.Time("proto.summary", 0, [&] {
          ok &= RoundTrip(MessageType::kSummaryUpdate, 1, wire);
        });
      }
    }
    if (!ok) out.violations.push_back("proto round trip failed");
    out.proto_recog_req_us = recog.MeanUs();
    out.proto_render_res_us = render.MeanUs();
    out.proto_pano_res_us = pano.MeanUs();
    out.proto_summary_us = summary.MeanUs();
  }

  {
    ScopedSpan layer(spans, "cache.replay");
    coic::cache::IcCache cache(cache_config);
    // Every payload is a slice of one shared buffer: the cache accounts
    // the real result sizes without the replay holding them all.
    const coic::Frame payload(
        coic::ByteVec(coic::render::Panorama::kEncodedWireSize, 0));
    CallTimer lookup{spans}, insert{spans};
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto& r = trace[i].record;
      const std::uint64_t id = i + 1;
      coic::proto::FeatureDescriptor key;
      std::size_t size = 0;
      switch (r.type) {
        case IcTaskType::kRecognition:
          key = coic::proto::FeatureDescriptor::ForVector(
              coic::proto::TaskKind::kRecognition, descriptors[i]);
          size = recog_result_bytes;
          break;
        case IcTaskType::kRender:
          key = coic::proto::FeatureDescriptor::ForHash(
              coic::proto::TaskKind::kRender,
              registry.DigestFor(r.model_id).value());
          size = ModelBytes(r.model_id);
          break;
        case IcTaskType::kPanorama:
          key = coic::proto::FeatureDescriptor::ForHash(
              coic::proto::TaskKind::kPanorama,
              coic::core::CoicClient::PanoramaIdentityDigest(r.video_id,
                                                             r.frame_index));
          size = coic::render::Panorama::kEncodedWireSize;
          break;
      }
      bool hit = false;
      lookup.Time("cache.lookup", id,
                  [&] { hit = cache.Lookup(key, r.at).hit; });
      if (!hit) {
        insert.Time("cache.insert", id, [&] {
          cache.Insert(key, payload.Slice(0, size), r.at);
        });
      }
    }
    out.cache_lookup_us = lookup.MeanUs();
    out.cache_insert_us = insert.MeanUs();
  }
  return out;
}

}  // namespace coicbench
