#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace vaq {
namespace internal_logging {

CheckFailure::~CheckFailure() {
  const char* base = file_;
  for (const char* p = file_; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  std::fprintf(stderr, "[FATAL %s:%d] %s\n", base, line_,
               stream_.str().c_str());
  std::abort();
}

}  // namespace internal_logging
}  // namespace vaq
