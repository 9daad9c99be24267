// Byte-stream transport for the client/server protocol.
//
// Substitution (DESIGN.md): Laminar's HTTP runs over TCP; we run the same
// protocol over in-memory duplex pipes — thread-safe byte FIFOs with EOF —
// which keeps the batch-vs-streaming benches deterministic while preserving
// every protocol-visible behaviour (framing, interleaving, blocking reads,
// half-close).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace laminar::net {

/// One endpoint of a bidirectional byte stream.
class ByteStream {
 public:
  virtual ~ByteStream() = default;
  /// Writes all bytes; returns false if the peer closed its read side.
  virtual bool Write(std::string_view data) = 0;
  /// Blocking read of up to `max` bytes; returns bytes read, 0 on EOF.
  virtual size_t Read(char* buf, size_t max) = 0;
  /// Half-close: peer reads drain then hit EOF. Idempotent.
  virtual void CloseWrite() = 0;
  /// Cancels this endpoint's reads: blocked and future Reads drain buffered
  /// bytes then return EOF. Idempotent. Needed for orderly shutdown when the
  /// peer is still open.
  virtual void CloseRead() = 0;
};

/// A connected pair of in-memory endpoints.
struct DuplexPipe {
  std::unique_ptr<ByteStream> first;
  std::unique_ptr<ByteStream> second;
};

/// Creates a connected pair. Writes on one endpoint become reads on the
/// other. `capacity` bounds the per-direction buffer in bytes: a slow
/// reader blocks the writer once the buffer fills, matching real-socket
/// backpressure (kernel send/receive buffers). The default 0 keeps the
/// historical unbounded behaviour for benches that measure protocol
/// behaviour, not backpressure.
DuplexPipe CreatePipe(size_t capacity = 0);

/// Bytes moved through pipes since process start (resource-transfer bench).
struct PipeCounters {
  static uint64_t BytesWritten();
  static void Reset();
};

}  // namespace laminar::net
