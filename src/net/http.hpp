// The Laminar wire protocol: one HttpConnection over a frame codec, in two
// modes (HttpConnection::Mode):
//
//  * kBatch — models Laminar 1.0's HTTP/1.1 usage: one request at a time,
//    the response fully buffered server-side and delivered whole ("the
//    engine ran the entire workflow, captured stdout, and sent the complete
//    response back", paper §IV-E).
//  * kStreaming — models Laminar 2.0's HTTP/2 streaming: multiplexed
//    streams, DATA frames forwarded to the client as they are produced,
//    bounded frame size.
//
// Frame layout (little-endian): u32 payload_len | u8 type | u64 stream_id |
// payload. Types: HEADERS (JSON request), DATA (chunk), END (u32 status),
// RST.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/concurrent_queue.hpp"
#include "common/status.hpp"
#include "common/value.hpp"
#include "net/bytestream.hpp"

namespace laminar::net {

struct HttpRequest {
  std::string method = "POST";
  std::string path;
  Value headers = Value::MakeObject();
  std::string body;

  Value ToValue() const;
  static Result<HttpRequest> FromValue(const Value& v);
};

/// Server-side handle for writing a (possibly streaming) response.
class StreamResponder {
 public:
  virtual ~StreamResponder() = default;
  virtual void SendChunk(std::string_view chunk) = 0;
  /// Completes the response. Exactly once per request.
  virtual void End(int status) = 0;
  /// Sends `body` (when non-empty) and completes the response: SendChunk
  /// then End, so a wrapper overriding only those two keeps working. The
  /// connection's responder puts both on the wire in one write (for a
  /// body of up to HttpConnection::kMaxFramesPerWrite frames).
  virtual void Reply(std::string_view body, int status) {
    if (!body.empty()) SendChunk(body);
    End(status);
  }
};

/// Server request handler; may block, may stream chunks as they appear.
///
/// Converts implicitly from any callable with the handler signature; such a
/// handler runs every request on the connection's handler pool. A handler
/// built with a reader rule may run the requests the rule accepts on the
/// connection's reader thread instead: no hand-off, no pool worker. The
/// connection does so only while nothing else of its own is waiting: no
/// request it serves is still in flight on the pool and no further frame
/// is already buffered; otherwise the request goes to the pool. A request
/// on the reader delays frames that arrive after it, on its connection
/// only, by its whole handler time, any wait for a lock included. So only
/// short requests that never wait on their own connection belong there,
/// and a rule should turn away a request that would wait for a lock.
class StreamHandler {
 public:
  using Fn = std::function<void(const HttpRequest&, StreamResponder&)>;
  /// True for a request that may run on the reader thread.
  using ReaderRule = std::function<bool(const HttpRequest&)>;

  StreamHandler() = default;
  StreamHandler(std::nullptr_t) {}  // NOLINT
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, StreamHandler> &&
             std::is_invocable_v<F&, const HttpRequest&, StreamResponder&>)
  StreamHandler(F&& fn) : fn_(std::forward<F>(fn)) {}  // NOLINT
  StreamHandler(Fn fn, ReaderRule runs_on_reader)
      : fn_(std::move(fn)), runs_on_reader_(std::move(runs_on_reader)) {}

  void operator()(const HttpRequest& request, StreamResponder& out) const {
    fn_(request, out);
  }
  explicit operator bool() const { return static_cast<bool>(fn_); }
  bool RunsOnReader(const HttpRequest& request) const {
    return runs_on_reader_ && runs_on_reader_(request);
  }

 private:
  Fn fn_;
  ReaderRule runs_on_reader_;
};

/// Client-side streaming response. NextChunk blocks until a chunk, returns
/// nullopt at end-of-response; status() is valid after that.
class ResponseStream {
 public:
  std::optional<std::string> NextChunk();
  /// Convenience: concatenates remaining chunks.
  std::string ReadAll();
  int status() const { return status_.load(); }

 private:
  friend class HttpConnection;
  ConcurrentQueue<std::string> chunks_;
  std::atomic<int> status_{0};
};

/// One protocol endpoint. A connection is created over a ByteStream end and
/// can serve (with a handler) and/or send requests — Laminar's engine does
/// both (it serves /execute and calls back for missing resources).
class HttpConnection {
 public:
  enum class Mode {
    kBatch,      ///< HTTP/1.1-like: responses buffered, one request in flight
    kStreaming,  ///< HTTP/2-like: multiplexed, chunks forwarded immediately
  };

  /// `max_handler_threads` bounds the per-connection handler-dispatch pool:
  /// workers are created on demand up to the cap and reused across requests,
  /// so a long-lived connection serving many requests keeps a constant
  /// thread count (requests beyond the cap queue FIFO). Requests answered
  /// on the reader thread (see StreamHandler) never reach the pool.
  HttpConnection(std::unique_ptr<ByteStream> stream, Mode mode,
                 StreamHandler handler = nullptr,
                 size_t max_handler_threads = kDefaultMaxHandlerThreads);
  ~HttpConnection();

  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends a request. In kBatch mode, blocks any further Send until the
  /// response ends (protocol has no pipelining). Returns the response
  /// stream (already-whole in batch mode).
  std::shared_ptr<ResponseStream> Send(const HttpRequest& request);

  /// Blocking convenience: sends and reads the full response body.
  Result<std::pair<int, std::string>> Call(const HttpRequest& request);

  /// Closes the write side; the peer sees EOF after draining.
  void Close();

  Mode mode() const { return mode_; }

  /// Maximum DATA frame payload (chunks are split to this size).
  static constexpr size_t kMaxFrameSize = 16 * 1024;

  /// DATA frames per Write. A reply of up to this many frames (128 KiB)
  /// leaves with its END frame in one Write; a longer one takes further
  /// Writes, so it never holds the write lock, or a copy of itself, for
  /// more than that and other streams' frames can go out between.
  static constexpr size_t kMaxFramesPerWrite = 8;

  /// Hard cap on any incoming frame's declared payload_len. HEADERS frames
  /// carry whole JSON request bodies (code, multipart resource uploads), so
  /// this is far above kMaxFrameSize — but a hostile 4 GiB length must be
  /// rejected before the codec allocates for it.
  static constexpr size_t kMaxFramePayload = 64 * 1024 * 1024;

  /// Default per-connection handler-dispatch thread cap.
  static constexpr size_t kDefaultMaxHandlerThreads = 8;

  /// Live handler-pool threads (bounded by max_handler_threads; 0 until a
  /// request is dispatched to the pool).
  size_t handler_threads() const;

  /// True once the connection shut down (peer EOF, Close(), or a protocol
  /// violation — oversized/unknown frames close the connection cleanly).
  bool is_closed() const { return closed_.load(); }

 private:
  class Responder;
  void ReaderLoop();
  /// Decodes one HEADERS payload and runs its handler: on this (the
  /// reader) thread when no served request is in flight, no further frame
  /// is buffered (`more_buffered`) and the handler's reader rule accepts
  /// the request, else on the pool.
  void ServeRequest(uint64_t stream_id, std::string_view payload,
                    bool more_buffered);
  void WriteFrame(uint8_t type, uint64_t stream_id, std::string_view payload);
  /// Writes `body` as DATA frames of at most kMaxFrameSize, then the END
  /// frame when `end_status` is set: kMaxFramesPerWrite DATA frames per
  /// Write, the END frame in the last.
  void WriteBody(uint64_t stream_id, std::string_view body,
                 std::optional<int> end_status);
  /// One Write of `frames` encoded frames, serialized with other writers.
  void WriteFrames(std::string_view bytes, size_t frames);
  /// Hands one parsed request to the handler pool (spawning a worker when
  /// none is idle and the cap allows).
  void DispatchHandler(std::function<void()> task);
  void HandlerWorkerLoop();
  /// Counts the violation and closes the connection; the reader loop exits.
  void ProtocolError(const char* reason);

  std::unique_ptr<ByteStream> stream_;
  Mode mode_;
  StreamHandler handler_;
  std::mutex write_mu_;
  std::mutex streams_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<ResponseStream>> pending_;
  std::atomic<uint64_t> next_stream_id_{1};
  std::mutex batch_mu_;  ///< serializes batch-mode requests
  size_t max_handler_threads_;
  ConcurrentQueue<std::function<void()>> handler_tasks_;
  std::vector<std::thread> handler_workers_;
  mutable std::mutex handler_workers_mu_;
  std::atomic<size_t> idle_workers_{0};
  /// Tasks pushed but not yet dequeued by a worker. Decremented only at
  /// dequeue, so a dispatcher comparing it against idle_workers_ cannot be
  /// fooled by a worker that raised its idle flag while en route to an
  /// earlier task.
  std::atomic<size_t> pending_tasks_{0};
  /// Requests handed to the pool whose reply has not ended yet.
  std::atomic<size_t> serving_{0};
  std::thread reader_;
  std::atomic<bool> closed_{false};
};

}  // namespace laminar::net
