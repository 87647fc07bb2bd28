// Invariant-checking macros.
//
// `VAQ_CHECK*` macros abort the process with a diagnostic when an
// invariant is violated; they are enabled in all build types (defensive
// checks in library internals use them only for programmer errors, never
// for data-dependent failures, which go through `Status`; faults are
// reported through metrics and `Status`, never through a log line). The
// diagnostic is one line on stderr,
// `[FATAL file:line] Check failed: <cond> <streamed message>`, printed
// just before the abort. Each macro expands to a single ternary
// expression, so it is safe inside unbraced `if`/`else` branches.
#ifndef VAQ_COMMON_LOGGING_H_
#define VAQ_COMMON_LOGGING_H_

#include <ostream>
#include <sstream>

namespace vaq {
namespace internal_logging {

// Stream-style builder of one failed check's diagnostic; prints it on
// stderr and aborts on destruction.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line) : file_(file), line_(line) {}

  CheckFailure(const CheckFailure&) = delete;
  CheckFailure& operator=(const CheckFailure&) = delete;

  ~CheckFailure();

  std::ostream& stream() { return stream_; }

 private:
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

// Swallows the stream expression in the ternary-check idiom below:
// `operator&` binds looser than `<<` but tighter than `?:`.
struct CheckVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging
}  // namespace vaq

// Aborts with a message when `cond` is false. Use for programmer errors.
// Expands to one expression, so `if (x) VAQ_CHECK(y); else ...` binds as
// written (an `if/else` expansion would capture the dangling `else`).
#define VAQ_CHECK(cond)                                                 \
  (cond) ? (void)0                                                      \
         : ::vaq::internal_logging::CheckVoidify() &                    \
               ::vaq::internal_logging::CheckFailure(__FILE__, __LINE__) \
                       .stream()                                        \
                   << "Check failed: " #cond " "

#define VAQ_CHECK_OP_(a, b, op) \
  VAQ_CHECK((a)op(b)) << "(" << (a) << " vs " << (b) << ") "

#define VAQ_CHECK_EQ(a, b) VAQ_CHECK_OP_(a, b, ==)
#define VAQ_CHECK_NE(a, b) VAQ_CHECK_OP_(a, b, !=)
#define VAQ_CHECK_LT(a, b) VAQ_CHECK_OP_(a, b, <)
#define VAQ_CHECK_LE(a, b) VAQ_CHECK_OP_(a, b, <=)
#define VAQ_CHECK_GT(a, b) VAQ_CHECK_OP_(a, b, >)
#define VAQ_CHECK_GE(a, b) VAQ_CHECK_OP_(a, b, >=)

// Aborts if a Status-returning expression fails. For examples/tools/tests.
#define VAQ_CHECK_OK(expr)                              \
  do {                                                  \
    ::vaq::Status _vaq_check_status = (expr);           \
    VAQ_CHECK(_vaq_check_status.ok())                   \
        << _vaq_check_status.ToString();                \
  } while (false)

#endif  // VAQ_COMMON_LOGGING_H_
