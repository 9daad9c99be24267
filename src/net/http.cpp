#include "net/http.hpp"

#include <algorithm>
#include <cstring>

#include "common/byte_buffer.hpp"
#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::net {
namespace {

constexpr uint8_t kFrameHeaders = 1;
constexpr uint8_t kFrameData = 2;
constexpr uint8_t kFrameEnd = 3;
constexpr uint8_t kFrameRst = 4;
constexpr size_t kFrameHeaderSize = 4 + 1 + 8;

void AppendFrameHeader(ByteWriter& w, size_t payload_len, uint8_t type,
                       uint64_t stream_id) {
  w.PutU32(static_cast<uint32_t>(payload_len));
  w.PutU8(type);
  w.PutU64(stream_id);
}

struct FrameHeader {
  uint32_t len = 0;
  uint8_t type = 0;
  uint64_t stream_id = 0;
};

/// Decodes frames through one per-connection read buffer, so a burst of
/// frames costs one Read rather than two per frame. It holds at most one
/// buffer of bytes beyond the frame being decoded: the caller validates
/// each header before asking for its payload, and a payload longer than
/// the buffered bytes is read straight into its string.
class FrameReader {
 public:
  explicit FrameReader(ByteStream& stream)
      : stream_(stream), buf_(new char[kBufferSize]) {}

  /// The next frame header; false at EOF, also mid-header.
  bool NextHeader(FrameHeader& header) {
    if (end_ - begin_ < kFrameHeaderSize) {
      std::memmove(buf_.get(), buf_.get() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
      while (end_ < kFrameHeaderSize) {
        size_t n = stream_.Read(buf_.get() + end_, kBufferSize - end_);
        if (n == 0) return false;
        end_ += n;
      }
    }
    ByteReader r(std::string_view(buf_.get() + begin_, kFrameHeaderSize));
    header.len = r.GetU32().value();
    header.type = r.GetU8().value();
    header.stream_id = r.GetU64().value();
    begin_ += kFrameHeaderSize;
    return true;
  }

  /// True when bytes past the last payload are already here: the peer
  /// has sent (part of) a further frame.
  bool HasBuffered() const { return end_ > begin_; }

  /// The `len` payload bytes after the last header; false at EOF.
  bool ReadPayload(size_t len, std::string& payload) {
    payload.resize(len);
    size_t got = std::min(len, end_ - begin_);
    std::memcpy(payload.data(), buf_.get() + begin_, got);
    begin_ += got;
    while (got < len) {
      size_t n = stream_.Read(payload.data() + got, len - got);
      if (n == 0) return false;
      got += n;
    }
    return true;
  }

 private:
  static constexpr size_t kBufferSize = 64 * 1024;
  ByteStream& stream_;
  std::unique_ptr<char[]> buf_;  ///< default-initialized: pages on first use
  size_t begin_ = 0;             ///< first undecoded byte
  size_t end_ = 0;               ///< one past the last byte read
};

/// Where requests ran, and how long pool requests queued: resolved once.
struct DispatchMetrics {
  telemetry::Counter& reader;
  telemetry::Counter& pool;
  telemetry::Histogram& wait_ms;
};

const DispatchMetrics& Dispatches() {
  auto& reg = telemetry::MetricsRegistry::Global();
  static const DispatchMetrics metrics{
      reg.GetCounter("laminar_net_requests_total", "dispatch=\"reader\""),
      reg.GetCounter("laminar_net_requests_total", "dispatch=\"pool\""),
      reg.GetHistogram("laminar_net_dispatch_wait_ms")};
  return metrics;
}

/// Optional `content-length` hardening. The frame codec does not need a
/// content length — body size is explicit in the envelope — but clients and
/// intermediaries may attach one, and a header the server silently ignores
/// is exactly the kind that smuggling attacks ride on. When present, every
/// case variant of the header must be a strict digit string (no sign — a
/// leading '+' is how classic CL parser differentials start — no
/// whitespace, no decimal point), must not overflow the frame cap, all
/// duplicates must agree, and the value must equal the actual body size.
Status ValidateContentLength(const Value& headers, size_t body_size) {
  if (!headers.is_object()) return Status::Ok();
  bool seen = false;
  uint64_t declared = 0;
  for (const auto& [name, value] : headers.as_object()) {
    if (strings::ToLower(name) != "content-length") continue;
    std::string text;
    if (value.is_string()) {
      text = value.as_string();
    } else if (value.is_int()) {
      text = std::to_string(value.as_int());  // negatives fail the digit scan
    }
    if (text.empty()) {
      return Status::ParseError("content-length must be a digit string");
    }
    uint64_t n = 0;
    for (char c : text) {
      if (c < '0' || c > '9') {
        return Status::ParseError(
            "content-length must contain only digits");
      }
      n = n * 10 + static_cast<uint64_t>(c - '0');
      if (n > HttpConnection::kMaxFramePayload) {
        return Status::ParseError("content-length exceeds frame cap");
      }
    }
    if (seen && n != declared) {
      return Status::ParseError("conflicting duplicate content-length headers");
    }
    seen = true;
    declared = n;
  }
  if (seen && declared != static_cast<uint64_t>(body_size)) {
    return Status::ParseError("content-length does not match body size");
  }
  return Status::Ok();
}

}  // namespace

Value HttpRequest::ToValue() const {
  Value v = Value::MakeObject();
  v["method"] = method;
  v["path"] = path;
  v["headers"] = headers;
  v["body"] = body;
  return v;
}

Result<HttpRequest> HttpRequest::FromValue(const Value& v) {
  if (!v.is_object()) return Status::ParseError("request must be an object");
  HttpRequest req;
  req.method = v.GetString("method", "POST");
  req.path = v.GetString("path");
  req.headers = v.at("headers");
  req.body = v.GetString("body");
  if (req.path.empty()) return Status::ParseError("request missing path");
  if (Status cl = ValidateContentLength(req.headers, req.body.size());
      !cl.ok()) {
    return cl;
  }
  return req;
}

std::optional<std::string> ResponseStream::NextChunk() {
  return chunks_.Pop();
}

std::string ResponseStream::ReadAll() {
  std::string out;
  while (auto chunk = NextChunk()) out += *chunk;
  return out;
}

/// Server-side responder bound to one stream.
class HttpConnection::Responder final : public StreamResponder {
 public:
  /// `on_pool`: the request is counted in the connection's serving_ until
  /// it ends.
  Responder(HttpConnection& conn, uint64_t stream_id, bool on_pool)
      : conn_(conn), stream_id_(stream_id), in_flight_(on_pool) {}

  void SendChunk(std::string_view chunk) override {
    if (ended_) return;
    if (conn_.mode_ == Mode::kBatch) {
      // HTTP/1.1 behaviour: nothing leaves the server until the handler
      // completes; stdout is captured into one buffer.
      buffer_.append(chunk.data(), chunk.size());
      return;
    }
    conn_.WriteBody(stream_id_, chunk, std::nullopt);
  }

  void End(int status) override { Reply({}, status); }

  void Reply(std::string_view body, int status) override {
    if (ended_) return;
    ended_ = true;
    if (!buffer_.empty()) {  // batch mode: the captured body goes first
      buffer_.append(body.data(), body.size());
      body = buffer_;
    }
    // Before the write, so a peer that has read the reply and sends its
    // next request finds this one no longer in flight.
    Finish();
    conn_.WriteBody(stream_id_, body, status);
  }

  /// Takes a pool request out of the connection's in-flight count, once:
  /// when it ends, or when its handler returns without ending it.
  void Finish() {
    if (in_flight_.exchange(false, std::memory_order_acq_rel)) {
      conn_.serving_.fetch_sub(1, std::memory_order_release);
    }
  }

 private:
  HttpConnection& conn_;
  uint64_t stream_id_;
  std::string buffer_;
  bool ended_ = false;
  std::atomic<bool> in_flight_;
};

HttpConnection::HttpConnection(std::unique_ptr<ByteStream> stream, Mode mode,
                               StreamHandler handler,
                               size_t max_handler_threads)
    : stream_(std::move(stream)),
      mode_(mode),
      handler_(std::move(handler)),
      max_handler_threads_(std::max<size_t>(1, max_handler_threads)) {
  reader_ = std::thread([this] { ReaderLoop(); });
}

HttpConnection::~HttpConnection() {
  Close();
  if (reader_.joinable()) reader_.join();
  handler_tasks_.Close();  // workers drain queued requests, then exit
  std::vector<std::thread> workers;
  {
    std::scoped_lock lock(handler_workers_mu_);
    workers.swap(handler_workers_);
  }
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
}

size_t HttpConnection::handler_threads() const {
  std::scoped_lock lock(handler_workers_mu_);
  return handler_workers_.size();
}

void HttpConnection::DispatchHandler(std::function<void()> task) {
  size_t pending =
      pending_tasks_.fetch_add(1, std::memory_order_acq_rel) + 1;
  {
    std::scoped_lock lock(handler_workers_mu_);
    // Spawn lazily: only when the idle workers cannot cover the tasks
    // outstanding (pending counts tasks not yet *dequeued*, so a worker
    // that raised its idle flag but is still en route to an earlier task
    // does not mask the need for another thread). A momentary mis-count in
    // the other direction at worst spawns one extra worker, still within
    // the cap.
    if (idle_workers_.load(std::memory_order_acquire) < pending &&
        handler_workers_.size() < max_handler_threads_) {
      handler_workers_.emplace_back([this] { HandlerWorkerLoop(); });
    }
  }
  handler_tasks_.Push(std::move(task));
}

void HttpConnection::HandlerWorkerLoop() {
  while (true) {
    idle_workers_.fetch_add(1, std::memory_order_acq_rel);
    std::optional<std::function<void()>> task = handler_tasks_.Pop();
    idle_workers_.fetch_sub(1, std::memory_order_acq_rel);
    if (!task) return;  // queue closed and drained
    pending_tasks_.fetch_sub(1, std::memory_order_acq_rel);
    (*task)();
  }
}

void HttpConnection::ProtocolError(const char* reason) {
  telemetry::MetricsRegistry::Global()
      .GetCounter("laminar_net_protocol_errors_total")
      .Inc();
  (void)reason;  // counted, not logged: hostile peers can spam this path
  Close();
}

void HttpConnection::Close() {
  if (closed_.exchange(true)) return;
  stream_->CloseWrite();
  stream_->CloseRead();  // unblock our reader thread
  // Unblock local pending readers.
  std::scoped_lock lock(streams_mu_);
  for (auto& [id, rs] : pending_) rs->chunks_.Close();
  pending_.clear();
}

void HttpConnection::WriteFrames(std::string_view bytes, size_t frames) {
  // Write coalescing: whole frames are assembled into one buffer and handed
  // to the stream as a single Write, so the TCP transport issues one
  // send(2) per reply of up to kMaxFramesPerWrite frames (or per streamed
  // chunk) instead of dribbling.
  static telemetry::Counter& frames_written =
      telemetry::MetricsRegistry::Global().GetCounter(
          "laminar_net_frames_written_total");
  static telemetry::Counter& frame_bytes =
      telemetry::MetricsRegistry::Global().GetCounter(
          "laminar_net_frame_bytes_total");
  // Counted before the write, so a peer that has read the frames sees them
  // counted.
  frames_written.Inc(frames);
  frame_bytes.Inc(bytes.size());
  std::scoped_lock lock(write_mu_);
  stream_->Write(bytes);
}

void HttpConnection::WriteFrame(uint8_t type, uint64_t stream_id,
                                std::string_view payload) {
  ByteWriter w;
  w.Reserve(kFrameHeaderSize + payload.size());
  AppendFrameHeader(w, payload.size(), type, stream_id);
  w.PutRaw(payload);
  WriteFrames(w.data(), 1);
}

void HttpConnection::WriteBody(uint64_t stream_id, std::string_view body,
                               std::optional<int> end_status) {
  constexpr size_t kMaxWritePayload = kMaxFramesPerWrite * kMaxFrameSize;
  size_t at = 0;
  do {
    std::string_view part = body.substr(at, kMaxWritePayload);
    at += part.size();
    const bool end = at == body.size() && end_status.has_value();
    const size_t data_frames =
        (part.size() + kMaxFrameSize - 1) / kMaxFrameSize;
    ByteWriter w;
    w.Reserve(part.size() + (data_frames + 1) * kFrameHeaderSize + 4);
    // Respect the frame-size bound, splitting large bodies.
    for (size_t i = 0; i < part.size(); i += kMaxFrameSize) {
      std::string_view frame = part.substr(i, kMaxFrameSize);
      AppendFrameHeader(w, frame.size(), kFrameData, stream_id);
      w.PutRaw(frame);
    }
    if (end) {
      AppendFrameHeader(w, 4, kFrameEnd, stream_id);
      w.PutU32(static_cast<uint32_t>(*end_status));
    }
    const size_t frames = data_frames + (end ? 1 : 0);
    if (frames > 0) WriteFrames(w.data(), frames);
  } while (at < body.size());
}

std::shared_ptr<ResponseStream> HttpConnection::Send(
    const HttpRequest& request) {
  auto response = std::make_shared<ResponseStream>();
  uint64_t id = next_stream_id_.fetch_add(2);  // odd ids: locally initiated
  {
    // The closed_ check must happen under streams_mu_: Close() flips
    // closed_ *before* taking the lock to clear pending_, so either we see
    // it here and fail fast, or our entry is inserted in time for Close()
    // to fail it — never a stranded entry that blocks forever.
    std::scoped_lock lock(streams_mu_);
    if (closed_.load()) {
      response->status_.store(503);
      response->chunks_.Close();
      return response;
    }
    pending_[id] = response;
  }
  if (mode_ == Mode::kBatch) {
    // No pipelining: hold the batch lock until the response completes.
    std::scoped_lock batch(batch_mu_);
    WriteFrame(kFrameHeaders, id, request.ToValue().ToJson());
    // Wait for END by buffering chunks locally; the reader thread closes
    // the queue when the response ends.
    std::string all;
    while (auto chunk = response->chunks_.Pop()) all += *chunk;
    auto buffered = std::make_shared<ResponseStream>();
    buffered->status_.store(response->status());
    if (!all.empty()) buffered->chunks_.Push(std::move(all));
    buffered->chunks_.Close();
    return buffered;
  }
  WriteFrame(kFrameHeaders, id, request.ToValue().ToJson());
  return response;
}

Result<std::pair<int, std::string>> HttpConnection::Call(
    const HttpRequest& request) {
  std::shared_ptr<ResponseStream> rs = Send(request);
  std::string body = rs->ReadAll();
  int status = rs->status();
  if (status == 0) {
    return Status::Unavailable("connection closed before response completed");
  }
  return std::make_pair(status, std::move(body));
}

void HttpConnection::ServeRequest(uint64_t stream_id,
                                  std::string_view payload,
                                  bool more_buffered) {
  Result<Value> parsed = json::Parse(payload);
  if (!parsed.ok()) {
    WriteFrame(kFrameRst, stream_id, parsed.status().message());
    return;
  }
  Result<HttpRequest> req = HttpRequest::FromValue(parsed.value());
  if (!req.ok() || !handler_) {
    if (!req.ok()) {
      // A syntactically valid envelope with malformed semantics
      // (bad/conflicting content-length, missing path) is counted with
      // the other protocol errors but is NOT fatal: the stream gets a
      // clean 400 and the connection — which may be multiplexing
      // well-formed streams — stays open.
      telemetry::MetricsRegistry::Global()
          .GetCounter("laminar_net_protocol_errors_total")
          .Inc();
    }
    WriteBody(stream_id, {}, handler_ ? 400 : 501);
    return;
  }
  const DispatchMetrics& dispatches = Dispatches();
  // No hand-off and no pool worker, but this connection decodes no further
  // frame until the handler returns. So the reader answers only when no
  // other request of this connection could be kept waiting: none it
  // serves is still in flight, and no further frame has arrived.
  if (!more_buffered && serving_.load(std::memory_order_acquire) == 0 &&
      handler_.RunsOnReader(*req)) {
    dispatches.reader.Inc();
    Responder responder(*this, stream_id, /*on_pool=*/false);
    handler_(*req, responder);
    return;
  }
  // The bounded worker pool keeps slow handlers off the reader (kStreaming
  // multiplexes; kBatch clients only send one anyway). Workers are reused
  // across requests, so a long-lived connection serving many requests
  // keeps a constant thread count.
  dispatches.pool.Inc();
  serving_.fetch_add(1, std::memory_order_acq_rel);
  auto responder = std::make_shared<Responder>(*this, stream_id,
                                               /*on_pool=*/true);
  DispatchHandler([this, responder, request = std::move(req.value()),
                   queued = Stopwatch()] {
    Dispatches().wait_ms.Observe(queued.ElapsedMillis());
    handler_(request, *responder);
    responder->Finish();
  });
}

void HttpConnection::ReaderLoop() {
  FrameReader frames(*stream_);
  FrameHeader header;
  while (frames.NextHeader(header)) {
    const uint64_t stream_id = header.stream_id;
    // Hostile-byte hardening: validate the header before allocating or
    // dispatching anything. A declared length over the cap or a frame type
    // outside the codec closes the connection cleanly (no 4 GiB allocation,
    // no guessing at unknown semantics).
    if (header.len > kMaxFramePayload) {
      ProtocolError("frame payload_len over cap");
      break;
    }
    if (header.type < kFrameHeaders || header.type > kFrameRst) {
      ProtocolError("unknown frame type");
      break;
    }
    std::string payload;
    if (!frames.ReadPayload(header.len, payload)) break;  // EOF mid-frame

    bool fatal = false;
    switch (header.type) {
      case kFrameHeaders:
        ServeRequest(stream_id, payload, frames.HasBuffered());
        break;
      case kFrameData: {
        std::shared_ptr<ResponseStream> rs;
        {
          std::scoped_lock lock(streams_mu_);
          auto it = pending_.find(stream_id);
          if (it != pending_.end()) rs = it->second;
        }
        if (rs) {
          rs->chunks_.Push(std::move(payload));
        } else if (!closed_.load()) {
          // DATA for a stream this endpoint never initiated (or already
          // completed) is a protocol violation — except while closing,
          // when pending_ was cleared under the peer's feet.
          ProtocolError("DATA for unknown stream id");
          fatal = true;
        }
        break;
      }
      case kFrameEnd: {
        ByteReader er(payload);
        int status = static_cast<int>(er.GetU32().value_or(500));
        std::shared_ptr<ResponseStream> rs;
        {
          std::scoped_lock lock(streams_mu_);
          auto it = pending_.find(stream_id);
          if (it != pending_.end()) {
            rs = it->second;
            pending_.erase(it);
          }
        }
        if (rs) {
          rs->status_.store(status);
          rs->chunks_.Close();
        }
        break;
      }
      case kFrameRst: {
        std::shared_ptr<ResponseStream> rs;
        {
          std::scoped_lock lock(streams_mu_);
          auto it = pending_.find(stream_id);
          if (it != pending_.end()) {
            rs = it->second;
            pending_.erase(it);
          }
        }
        if (rs) {
          rs->status_.store(500);
          rs->chunks_.Close();
        }
        break;
      }
      default:
        break;  // unreachable: header validation rejected unknown types
    }
    if (fatal) break;
  }
  // EOF: fail all pending responses, then close the whole connection so a
  // racing Send() fails fast instead of parking a request that no peer
  // will ever answer.
  {
    std::scoped_lock lock(streams_mu_);
    for (auto& [id, rs] : pending_) {
      rs->status_.store(503);
      rs->chunks_.Close();
    }
    pending_.clear();
  }
  Close();
}

}  // namespace laminar::net
