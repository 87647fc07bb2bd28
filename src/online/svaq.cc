#include "online/svaq.h"

#include <algorithm>

#include "online/svaqd.h"

namespace vaq {
namespace online {

scanstat::ScanConfig ObjectScanConfig(const VideoLayout& layout,
                                      const SvaqOptions& options) {
  scanstat::ScanConfig config;
  config.window = layout.frames_per_clip();
  config.horizon = options.horizon_frames > 0 ? options.horizon_frames
                                              : layout.num_frames();
  config.horizon = std::max(config.horizon, config.window);
  config.alpha = options.alpha;
  return config;
}

scanstat::ScanConfig ActionScanConfig(const VideoLayout& layout,
                                      const SvaqOptions& options) {
  scanstat::ScanConfig config;
  config.window = layout.shots_per_clip();
  const int64_t horizon_frames = options.horizon_frames > 0
                                     ? options.horizon_frames
                                     : layout.num_frames();
  config.horizon =
      std::max<int64_t>(horizon_frames / layout.frames_per_shot(),
                        config.window);
  config.alpha = options.alpha;
  return config;
}

Svaq::Svaq(QuerySpec query, VideoLayout layout, SvaqOptions options)
    : query_(std::move(query)),
      layout_(layout),
      options_(std::move(options)) {}

std::vector<int64_t> Svaq::InitialObjectCriticalValues() const {
  const scanstat::ScanConfig config = ObjectScanConfig(layout_, options_);
  return std::vector<int64_t>(
      query_.objects.size(),
      scanstat::CriticalValue(options_.p0_object, config));
}

int64_t Svaq::InitialActionCriticalValue() const {
  if (!query_.has_action()) return 0;
  return scanstat::CriticalValue(options_.p0_action,
                                 ActionScanConfig(layout_, options_));
}

OnlineResult Svaq::Run(detect::ObjectDetector* detector,
                       detect::ActionRecognizer* recognizer) const {
  SvaqdOptions options;
  options.base = options_;
  options.adaptive = false;
  return Svaqd(query_, layout_, options).Run(detector, recognizer);
}

}  // namespace online
}  // namespace vaq
