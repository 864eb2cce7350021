// RPC message framing over an ordered byte stream — allocation-free on the fast path.
//
// The synthetic benchmark, the KV store and the networked Silo port all speak
// length-prefixed messages over "TCP" (an ordered, reliable byte stream — provided by
// the loopback NIC in the runtime and assumed by the DES). The frame layout is:
//
//   [u32 payload_len][u64 request_id][payload bytes]
//
// request_id is chosen by the client and echoed in the response so an open-loop client
// can match completions to send timestamps. The parser is incremental: bytes may arrive
// in arbitrary segment boundaries (back-to-back requests in one segment, one request
// split across many), which is exactly the condition that makes socket stealing unsafe
// without ZygOS's ordering guarantees (§4.3).
//
// Data-plane memory: the parser consumes pooled RX segments (src/common/buffer_pool.h)
// and emits `MessageView`s — a request id plus a string_view into either the segment
// buffer itself (frame fully contained in one segment: zero copy) or a pooled
// reassembly buffer (frame straddled segments: exactly one copy). Each view holds an
// IoBuf ref that keeps the underlying bytes alive through handler execution and TX,
// across cores when a thief executes the connection. TX frames are built in place by
// ResponseBuilder (header + payload in one pooled buffer, no scratch string).
//
// Contract: FrameParser is single-threaded (home-core netstack only); the views it
// emits are immutable and may be consumed on any core. EncodeMessage/EncodeFrame are
// pure. Frame fields are little-endian; payload_len excludes the header.
#ifndef ZYGOS_NET_MESSAGE_H_
#define ZYGOS_NET_MESSAGE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/buffer_pool.h"

namespace zygos {

// Wire header size: [u32 payload_len][u64 request_id].
inline constexpr size_t kFrameHeaderSize = 4 + 8;

// Status flag carried in the top bit of the length word: the server SHED this request
// under overload control (its queueing delay blew the deadline budget) instead of
// executing it. The bit is free because kMaxPayload (16 MiB) needs only 25 bits;
// parsers mask it off before the oversized-length check, so a flagged frame and a
// poisoned one can never be confused. A shed response carries the echoed request_id
// and an empty payload — clients can distinguish shed from loss and from success.
inline constexpr uint32_t kFrameFlagShed = 0x8000'0000u;
inline constexpr uint32_t kFrameLenMask = ~kFrameFlagShed;

// Owning message (client-side convenience and tests); the server data plane uses
// MessageView instead.
struct Message {
  uint64_t request_id = 0;
  std::string payload;
  bool shed = false;  // kFrameFlagShed was set on the wire
};

// One parsed request without ownership of a private copy: `payload` points into
// `buf`, whose refcount keeps the bytes alive for as long as any view exists.
struct MessageView {
  uint64_t request_id = 0;
  std::string_view payload;
  IoBuf buf;
  bool shed = false;  // kFrameFlagShed was set on the wire
};

// Appends the wire encoding of `msg` to `out` (string-based client path).
void EncodeMessage(const Message& msg, std::string& out);

// Copy-free variant for TX paths that already hold the payload elsewhere.
void EncodeMessage(uint64_t request_id, std::string_view payload, std::string& out);

// Encodes one frame into a single pooled buffer: header and payload, ready to
// transmit. The server-side (and in-process client) fast path.
IoBuf EncodeFrame(uint64_t request_id, std::string_view payload);

// Encodes the shed status reply for `request_id`: an empty-payload frame with
// kFrameFlagShed set. Deliberately the cheapest possible frame — sheds exist to
// spend as little of an overloaded server's capacity as possible.
IoBuf EncodeShedFrame(uint64_t request_id);

// Builds one response frame in place: the handler appends payload bytes directly
// into the (pooled) TX buffer, Finish() stamps the header. No intermediate string,
// no second copy — the buffer returned by Finish() is what the transport writes.
class ResponseBuilder {
 public:
  // `payload_hint` pre-sizes the buffer (e.g. the request size for an echo); the
  // builder grows transparently if the response outruns it.
  explicit ResponseBuilder(size_t payload_hint = 0)
      : buf_(AllocBuffer(kFrameHeaderSize + payload_hint)) {}

  void Append(std::string_view bytes) {
    EnsureRoom(bytes.size());
    std::memcpy(buf_.data() + kFrameHeaderSize + payload_size_, bytes.data(),
                bytes.size());
    payload_size_ += bytes.size();
  }

  void PushByte(char byte) {
    EnsureRoom(1);
    buf_.data()[kFrameHeaderSize + payload_size_] = byte;
    payload_size_ += 1;
  }

  size_t payload_size() const { return payload_size_; }

  // Mutable view of the payload written so far, for protocols that patch a byte
  // they emitted optimistically (e.g. a status slot written before the lookup).
  char* payload_data() { return buf_.data() + kFrameHeaderSize; }

  // Stamps the header and returns the finished frame. The builder is empty
  // afterwards but stays valid: further Append/Finish calls start a fresh frame
  // (allocating again), they never touch the returned one.
  IoBuf Finish(uint64_t request_id);

 private:
  void EnsureRoom(size_t additional);

  IoBuf buf_;
  size_t payload_size_ = 0;
};

// Incremental frame parser. Feed() consumes any number of bytes; complete messages
// are appended to an internal queue drained with TakeViewsInto()/TakeMessages().
class FrameParser {
 public:
  static constexpr size_t kHeaderSize = kFrameHeaderSize;
  // Frames larger than this indicate a corrupt stream; Feed() returns false.
  static constexpr size_t kMaxPayload = 16 * 1024 * 1024;

  // Zero-copy ingest: `bytes` must point into `buf` (a pooled RX segment). Frames
  // fully contained in the segment become views into it (the segment's refcount is
  // bumped per message); straddling frames are reassembled into a pooled buffer with
  // one copy. Returns false on a malformed frame (oversized length); the parser is
  // then poisoned and ignores further input.
  bool Feed(const IoBuf& buf, std::string_view bytes);

  // Compatibility ingest for callers holding raw bytes (clients, tests): copies into
  // a pooled segment, then parses as above.
  bool Feed(const char* data, size_t len);

  // Moves out all fully parsed messages as owning copies, in stream order
  // (client-side convenience; the runtime drains views instead).
  std::vector<Message> TakeMessages();

  // Appends all fully parsed views to `out`, in stream order, reusing the caller's
  // storage (the batched netstack drains many segments per pass into one scratch
  // vector instead of allocating a fresh one per segment).
  void TakeViewsInto(std::vector<MessageView>& out);

  bool HasMessages() const { return !views_.empty(); }
  bool Poisoned() const { return poisoned_; }
  // Bytes buffered waiting for the rest of a frame.
  size_t PendingBytes() const {
    return have_header_ ? kHeaderSize + pending_filled_ : header_filled_;
  }

 private:
  // Incremental header/payload reassembly state for the frame in progress.
  char header_[kHeaderSize];
  size_t header_filled_ = 0;
  bool have_header_ = false;
  uint64_t pending_id_ = 0;
  uint32_t pending_len_ = 0;
  bool pending_shed_ = false;
  IoBuf pending_;  // straddled-frame payload storage (pooled)
  size_t pending_filled_ = 0;

  std::vector<MessageView> views_;
  bool poisoned_ = false;
};

}  // namespace zygos

#endif  // ZYGOS_NET_MESSAGE_H_
