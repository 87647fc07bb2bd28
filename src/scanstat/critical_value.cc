#include "scanstat/critical_value.h"

#include <sstream>

#include "common/logging.h"
#include "scanstat/naus.h"

namespace vaq {
namespace scanstat {

std::string ScanConfig::ToString() const {
  std::ostringstream os;
  os << "ScanConfig{w=" << window << ", N=" << horizon << ", alpha=" << alpha
     << "}";
  return os.str();
}

int64_t CriticalValue(double p, const ScanConfig& config) {
  VAQ_CHECK_GE(config.window, 1);
  VAQ_CHECK_GE(config.horizon, config.window);
  VAQ_CHECK_GT(config.alpha, 0.0);
  VAQ_CHECK_LT(config.alpha, 1.0);
  const int64_t w = config.window;
  const double L = config.L();
  return FirstSignificantCount(w, config.alpha, [&](int64_t k) {
    return ScanStatisticTailProbability(k, p, w, L);
  });
}

}  // namespace scanstat
}  // namespace vaq
