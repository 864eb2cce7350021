// Closed-loop saturation driver for `peak_rps`, and the benchmark's output check.
//
// One thread keeps a fixed window of requests outstanding on each connection: every
// answered request is replaced by a new one, so the server always has
// connections x window requests to work on and the completion rate is its saturation
// throughput. Every response is decoded and judged by a service-specific Oracle;
// a wrong answer, a shed, a response out of FIFO order or a request left unanswered
// is a failure.
//
// The rate is reported per slice of the measurement window, so that a host stall
// that freezes a few slices does not set the caller's figure.
#ifndef PERFBENCH_CLOSED_LOOP_H_
#define PERFBENCH_CLOSED_LOOP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time_units.h"

namespace perfbench {

// What the driver remembers about one outstanding request.
struct Expectation {
  uint8_t op = 0;
  uint64_t key = 0;
  int64_t value = -1;  // oracle-defined; -1 means nothing exact is expected
};

// Builds requests and judges their responses for one service. Called from the
// driver thread only.
class Oracle {
 public:
  virtual ~Oracle() = default;
  // Appends one request payload for connection `conn` to `payload` (cleared by the
  // caller) and records what its response must satisfy.
  virtual void Next(int conn, zygos::Rng& rng, std::string& payload,
                    Expectation& expect) = 0;
  // Whether `response` is a correct answer to the request `expect` describes.
  virtual bool Check(const Expectation& expect, std::string_view response) = 0;
};

struct ClosedLoopOptions {
  uint16_t port = 0;
  int connections = 4;
  int window = 8;  // requests outstanding per connection
  zygos::Nanos duration = zygos::kSecond;  // including warmup
  zygos::Nanos warmup = zygos::kSecond / 5;
  zygos::Nanos slice = zygos::kSecond / 50;
  uint64_t seed = 1;
};

struct ClosedLoopResult {
  uint64_t sent = 0;
  uint64_t answered = 0;    // responses received and checked (right or wrong)
  uint64_t wrong = 0;       // answered, but the oracle rejected the response
  uint64_t shed = 0;        // refused by overload control
  uint64_t mismatches = 0;  // response id out of FIFO order (connection severed)
  uint64_t lost = 0;        // never answered
  zygos::Nanos measure_start = 0;  // slice i covers measure_start + [i, i+1) * slice
  std::vector<double> slice_rps;   // completions per second in each full slice

  uint64_t failed() const { return wrong + shed + mismatches + lost; }
};

ClosedLoopResult RunClosedLoop(const ClosedLoopOptions& options, Oracle& oracle);

// Opens a blocking TCP connection to 127.0.0.1:`port` with Nagle off; -1 on failure.
int ConnectLoopback(uint16_t port);

// Writes all of `bytes`; false on error.
bool SendAll(int fd, std::string_view bytes);

}  // namespace perfbench

#endif  // PERFBENCH_CLOSED_LOOP_H_
