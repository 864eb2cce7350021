// TPC-C request generator for the open-loop loadgen: samples one transaction from the
// standard mix (45/43/4/4/4) and encodes it as a tpcc_service wire payload.
//
// Determinism contract: the bytes appended are a pure function of the caller's RNG
// stream and the scale. The factory draws exactly one u64 from the loadgen Rng per
// request and seeds a fresh TpccRandom from it, so request content is reproducible
// from the loadgen seed alone and the generator needs no shared state across
// threads. tests/loadgen_test.cc pins this: same seed ⇒ byte-identical request
// stream. That one draw shares the loadgen thread's Rng with its connection picks
// (src/loadgen/tcp_loadgen.h).
#ifndef ZYGOS_LOADGEN_TPCC_GEN_H_
#define ZYGOS_LOADGEN_TPCC_GEN_H_

#include <functional>
#include <string>

#include "src/common/rng.h"
#include "src/db/tpcc_loader.h"
#include "src/db/tpcc_random.h"

namespace zygos {

// Samples one mixed transaction (type + params) from `random` and appends its wire
// encoding to `out` (no clear). Returns the number of bytes appended.
size_t AppendTpccRequest(TpccRandom& random, const LoaderOptions& scale,
                         std::string& out);

// A make_payload factory for TcpLoadgenOptions. `scale` must match the server's
// loaded scale for requests to mostly hit loaded rows (ids past the scale abort
// cleanly, they never crash).
std::function<void(Rng& rng, std::string& out)> MakeTpccPayloadFactory(
    const LoaderOptions& scale);

}  // namespace zygos

#endif  // ZYGOS_LOADGEN_TPCC_GEN_H_
