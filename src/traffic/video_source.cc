#include "traffic/video_source.h"

#include "cc/cubic.h"
#include "util/check.h"

namespace nimbus::traffic {

namespace {
constexpr TimeNs kChunkDuration = from_sec(4);
constexpr int kInitialBufferChunks = 3;  // fetched back-to-back at start
}  // namespace

VideoSource::VideoSource(sim::Network* net, Config cfg)
    : net_(net), cfg_(cfg) {
  NIMBUS_CHECK(net_ != nullptr);
  NIMBUS_CHECK(cfg_.bitrate_bps > 0);
  chunk_bytes_ = static_cast<std::int64_t>(cfg_.bitrate_bps / 8.0 *
                                           to_sec(kChunkDuration));

  sim::TransportFlow::Config fc;
  fc.id = cfg_.id != 0 ? cfg_.id : net_->next_flow_id();
  fc.rtt_prop = cfg_.rtt_prop;
  fc.start_time = cfg_.start_time;
  fc.app_bytes = 0;  // app-driven: data arrives via add_app_bytes
  fc.seed = cfg_.seed;
  flow_ = net_->add_flow(fc, std::make_unique<cc::Cubic>());

  net_->loop().schedule(std::max(cfg_.start_time, net_->loop().now()),
                        [this]() {
                          // Playback-buffer fill: several chunks at once.
                          for (int i = 0; i < kInitialBufferChunks; ++i) {
                            flow_->add_app_bytes(chunk_bytes_);
                          }
                          on_chunk_timer();
                        });
}

void VideoSource::on_chunk_timer() {
  const TimeNs now = net_->loop().now();
  if (now >= cfg_.stop_time) return;
  flow_->add_app_bytes(chunk_bytes_);
  net_->loop().schedule_in(kChunkDuration,
                           [this]() { on_chunk_timer(); });
}

}  // namespace nimbus::traffic
