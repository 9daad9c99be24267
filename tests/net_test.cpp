#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/byte_buffer.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "net/http.hpp"
#include "net/multipart.hpp"
#include "telemetry/telemetry.hpp"

// Wall-clock assertions need headroom under ThreadSanitizer: its scheduler
// can delay a freshly spawned handler thread by tens of milliseconds on a
// small host, which is noise, not a lost multiplexing property.
#if defined(__SANITIZE_THREAD__)
#define LAMINAR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LAMINAR_TSAN 1
#endif
#endif

namespace laminar::net {
namespace {

TEST(Pipe, BytesFlowBothWays) {
  DuplexPipe pipe = CreatePipe();
  ASSERT_TRUE(pipe.first->Write("hello"));
  char buf[16];
  size_t n = pipe.second->Read(buf, sizeof buf);
  EXPECT_EQ(std::string(buf, n), "hello");
  ASSERT_TRUE(pipe.second->Write("hi"));
  n = pipe.first->Read(buf, sizeof buf);
  EXPECT_EQ(std::string(buf, n), "hi");
}

TEST(Pipe, CloseWriteDrainsThenEof) {
  DuplexPipe pipe = CreatePipe();
  pipe.first->Write("tail");
  pipe.first->CloseWrite();
  char buf[16];
  size_t n = pipe.second->Read(buf, sizeof buf);
  EXPECT_EQ(std::string(buf, n), "tail");
  EXPECT_EQ(pipe.second->Read(buf, sizeof buf), 0u);  // EOF
  EXPECT_FALSE(pipe.first->Write("after close"));
}

TEST(Pipe, ReadBlocksUntilWrite) {
  DuplexPipe pipe = CreatePipe();
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pipe.first->Write("late");
  });
  char buf[8];
  size_t n = pipe.second->Read(buf, sizeof buf);
  writer.join();
  EXPECT_EQ(std::string(buf, n), "late");
}

TEST(Multipart, RoundTripsBinaryParts) {
  std::vector<FilePart> parts = {
      {"data/input.csv", "a,b\n1,2\n"},
      {"bin", std::string("\x00\x01\xFF", 3)},
      {"empty", ""},
  };
  Result<std::vector<FilePart>> back = DecodeMultipart(EncodeMultipart(parts));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 3u);
  EXPECT_EQ((*back)[0].name, "data/input.csv");
  EXPECT_EQ((*back)[1].content, parts[1].content);
  EXPECT_EQ((*back)[2].content, "");
}

TEST(Multipart, RejectsGarbage) {
  EXPECT_FALSE(DecodeMultipart("nope").ok());
  EXPECT_FALSE(DecodeMultipart("").ok());
  std::string truncated = EncodeMultipart({{"a", "abc"}});
  EXPECT_FALSE(DecodeMultipart(truncated.substr(0, truncated.size() - 2)).ok());
  EXPECT_FALSE(DecodeMultipart(truncated + "extra").ok());
}

struct Harness {
  explicit Harness(HttpConnection::Mode mode, StreamHandler handler) {
    DuplexPipe pipe = CreatePipe();
    server = std::make_unique<HttpConnection>(std::move(pipe.first), mode,
                                              std::move(handler));
    client = std::make_unique<HttpConnection>(std::move(pipe.second), mode);
  }
  std::unique_ptr<HttpConnection> server;
  std::unique_ptr<HttpConnection> client;
};

TEST(Http, BasicCallRoundTrip) {
  Harness h(HttpConnection::Mode::kStreaming,
            [](const HttpRequest& req, StreamResponder& out) {
              EXPECT_EQ(req.method, "POST");
              out.SendChunk("echo:" + req.body);
              out.End(200);
            });
  HttpRequest req;
  req.path = "/echo";
  req.body = "payload";
  auto resp = h.client->Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 200);
  EXPECT_EQ(resp->second, "echo:payload");
}

TEST(Http, HeadersTravel) {
  Harness h(HttpConnection::Mode::kStreaming,
            [](const HttpRequest& req, StreamResponder& out) {
              out.SendChunk(req.headers.GetString("authorization"));
              out.End(200);
            });
  HttpRequest req;
  req.path = "/auth";
  req.headers["authorization"] = "tok-1";
  auto resp = h.client->Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->second, "tok-1");
}

TEST(Http, ErrorStatusPropagates) {
  Harness h(HttpConnection::Mode::kStreaming,
            [](const HttpRequest&, StreamResponder& out) { out.End(404); });
  HttpRequest req;
  req.path = "/missing";
  auto resp = h.client->Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 404);
  EXPECT_EQ(resp->second, "");
}

TEST(Http, NoHandlerYields501) {
  DuplexPipe pipe = CreatePipe();
  HttpConnection server(std::move(pipe.first),
                        HttpConnection::Mode::kStreaming);  // no handler
  HttpConnection client(std::move(pipe.second),
                        HttpConnection::Mode::kStreaming);
  HttpRequest req;
  req.path = "/x";
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 501);
}

TEST(Http, StreamingChunksArriveBeforeEnd) {
  // The §IV-E property: in streaming mode, the client observes the first
  // chunk while the handler is still running.
  std::atomic<bool> handler_done{false};
  Harness h(HttpConnection::Mode::kStreaming,
            [&](const HttpRequest&, StreamResponder& out) {
              out.SendChunk("first\n");
              std::this_thread::sleep_for(std::chrono::milliseconds(80));
              out.SendChunk("second\n");
              handler_done = true;
              out.End(200);
            });
  HttpRequest req;
  req.path = "/stream";
  auto stream = h.client->Send(req);
  auto first = stream->NextChunk();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "first\n");
  EXPECT_FALSE(handler_done.load());  // observed mid-handler
  EXPECT_EQ(stream->ReadAll(), "second\n");
  EXPECT_EQ(stream->status(), 200);
}

TEST(Http, BatchModeBuffersUntilEnd) {
  // The Laminar 1.0 behaviour: nothing reaches the client until the handler
  // finishes; the whole body arrives at once.
  Harness h(HttpConnection::Mode::kBatch,
            [&](const HttpRequest&, StreamResponder& out) {
              out.SendChunk("first\n");
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
              out.SendChunk("second\n");
              out.End(200);
            });
  HttpRequest req;
  req.path = "/batch";
  Stopwatch watch;
  auto stream = h.client->Send(req);
  auto chunk = stream->NextChunk();
  double first_ms = watch.ElapsedMillis();
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(*chunk, "first\nsecond\n");  // single coalesced body
  EXPECT_GE(first_ms, 45.0);             // not before the handler finished
  EXPECT_FALSE(stream->NextChunk().has_value());
}

TEST(Http, LargeBodySplitsIntoFrames) {
  std::string big(100'000, 'z');
  Harness h(HttpConnection::Mode::kStreaming,
            [&](const HttpRequest&, StreamResponder& out) {
              out.SendChunk(big);
              out.End(200);
            });
  HttpRequest req;
  req.path = "/big";
  auto resp = h.client->Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->second.size(), big.size());
  EXPECT_EQ(resp->second, big);
}

TEST(Http, MultiplexedConcurrentRequests) {
  Harness h(HttpConnection::Mode::kStreaming,
            [](const HttpRequest& req, StreamResponder& out) {
              if (req.path == "/slow") {
                std::this_thread::sleep_for(std::chrono::milliseconds(60));
              }
              out.SendChunk(req.path);
              out.End(200);
            });
  HttpRequest slow;
  slow.path = "/slow";
  HttpRequest fast;
  fast.path = "/fast";
  auto slow_stream = h.client->Send(slow);
  auto fast_stream = h.client->Send(fast);
  // The fast response must complete while the slow one is still pending.
  EXPECT_EQ(fast_stream->ReadAll(), "/fast");
  EXPECT_EQ(slow_stream->ReadAll(), "/slow");
}

TEST(Http, CloseFailsPendingRequests) {
  Harness h(HttpConnection::Mode::kStreaming,
            [](const HttpRequest&, StreamResponder& out) {
              std::this_thread::sleep_for(std::chrono::milliseconds(200));
              out.End(200);
            });
  HttpRequest req;
  req.path = "/hang";
  auto stream = h.client->Send(req);
  h.client->Close();
  EXPECT_FALSE(stream->NextChunk().has_value());
  EXPECT_NE(stream->status(), 200);
}

TEST(Http, SendAfterCloseFailsFast) {
  Harness h(HttpConnection::Mode::kStreaming,
            [](const HttpRequest&, StreamResponder& out) { out.End(200); });
  h.client->Close();
  HttpRequest req;
  req.path = "/x";
  auto stream = h.client->Send(req);
  EXPECT_FALSE(stream->NextChunk().has_value());
  EXPECT_EQ(stream->status(), 503);
}

TEST(Http, MalformedRequestValueRejected) {
  Result<HttpRequest> r = HttpRequest::FromValue(Value("not an object"));
  EXPECT_FALSE(r.ok());
  Value no_path = Value::MakeObject();
  no_path["method"] = "POST";
  EXPECT_FALSE(HttpRequest::FromValue(no_path).ok());
}

TEST(BoundedPipe, SlowReaderBlocksWriter) {
  // Real-socket behaviour: once the peer's buffer is full, the writer
  // blocks until the reader drains (kernel send-buffer backpressure).
  DuplexPipe pipe = CreatePipe(/*capacity=*/8);
  std::atomic<bool> write_done{false};
  std::thread writer([&] {
    pipe.first->Write(std::string(64, 'x'));  // 8x the capacity
    write_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(write_done.load());  // stuck behind the full buffer
  char buf[64];
  size_t total = 0;
  while (total < 64) total += pipe.second->Read(buf, sizeof buf);
  writer.join();
  EXPECT_TRUE(write_done.load());
  EXPECT_EQ(total, 64u);
}

TEST(BoundedPipe, CloseUnblocksStuckWriter) {
  DuplexPipe pipe = CreatePipe(/*capacity=*/4);
  std::atomic<bool> write_ok{true};
  std::thread writer([&] { write_ok = pipe.first->Write(std::string(100, 'y')); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pipe.second->CloseRead();  // reader gives up
  writer.join();
  EXPECT_FALSE(write_ok.load());  // write reports the broken pipe
}

TEST(BoundedPipe, StreamingProtocolSurvivesBackpressure) {
  // The whole frame protocol over a pipe whose per-direction buffer is
  // smaller than one frame: every write crosses the capacity boundary, so
  // the codec sees short reads and blocked writes just like a socket whose
  // kernel buffers are tiny.
  DuplexPipe pipe = CreatePipe(/*capacity=*/512);
  HttpConnection server(std::move(pipe.first), HttpConnection::Mode::kStreaming,
                        [](const HttpRequest& req, StreamResponder& out) {
                          out.SendChunk("pre:");
                          out.SendChunk(req.body);
                          out.End(200);
                        });
  HttpConnection client(std::move(pipe.second),
                        HttpConnection::Mode::kStreaming);
  std::string big(50'000, 'q');
  HttpRequest req;
  req.path = "/big";
  req.body = big;
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 200);
  EXPECT_EQ(resp->second, "pre:" + big);
}

TEST(Http, LongLivedConnectionKeepsBoundedThreads) {
  // Regression for the unbounded handler-thread growth: one thread used to
  // be created per request and joined only at destruction, so a long-lived
  // connection serving N requests accumulated N threads. The dispatch pool
  // must stay within its cap across 10k requests.
  Harness h(HttpConnection::Mode::kStreaming,
            [](const HttpRequest& req, StreamResponder& out) {
              out.SendChunk(req.body);
              out.End(200);
            });
  for (int i = 0; i < 10'000; ++i) {
    HttpRequest req;
    req.path = "/n";
    req.body = std::to_string(i);
    auto resp = h.client->Call(req);
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->second, req.body);
  }
  EXPECT_LE(h.server->handler_threads(),
            HttpConnection::kDefaultMaxHandlerThreads);
  EXPECT_GE(h.server->handler_threads(), 1u);
}

TEST(Http, HandlerPoolStillMultiplexes) {
  // The pool spawns additional workers while others are busy, so the
  // multiplexing property survives the thread bound. A serialized fast
  // request would wait out the whole slow sleep, so any bound below the
  // sleep proves overlap; under TSan the sleep is stretched so scheduler
  // jitter cannot eat the margin.
#ifdef LAMINAR_TSAN
  static constexpr int kSlowSleepMs = 400;
#else
  static constexpr int kSlowSleepMs = 80;
#endif
  Harness h(HttpConnection::Mode::kStreaming,
            [](const HttpRequest& req, StreamResponder& out) {
              if (req.path == "/slow") {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(kSlowSleepMs));
              }
              out.SendChunk(req.path);
              out.End(200);
            });
  HttpRequest slow;
  slow.path = "/slow";
  HttpRequest fast;
  fast.path = "/fast";
  auto slow_stream = h.client->Send(slow);
  auto fast_stream = h.client->Send(fast);
  Stopwatch watch;
  EXPECT_EQ(fast_stream->ReadAll(), "/fast");
  EXPECT_LT(watch.ElapsedMillis(), 0.75 * kSlowSleepMs);  // not queued behind /slow
  EXPECT_EQ(slow_stream->ReadAll(), "/slow");
}

// ---- one write per reply, one read per burst -----------------------------

/// Counts the Writes and Reads a connection makes on its stream.
class CountingStream final : public ByteStream {
 public:
  CountingStream(std::unique_ptr<ByteStream> inner, std::atomic<int>& writes,
                 std::atomic<int>& reads)
      : inner_(std::move(inner)), writes_(writes), reads_(reads) {}
  bool Write(std::string_view data) override {
    ++writes_;
    size_t largest = largest_write_.load();
    while (data.size() > largest &&
           !largest_write_.compare_exchange_weak(largest, data.size())) {
    }
    return inner_->Write(data);
  }
  size_t Read(char* buf, size_t max) override {
    ++reads_;
    return inner_->Read(buf, max);
  }
  void CloseWrite() override { inner_->CloseWrite(); }
  void CloseRead() override { inner_->CloseRead(); }
  size_t largest_write() const { return largest_write_.load(); }

 private:
  std::unique_ptr<ByteStream> inner_;
  std::atomic<int>& writes_;
  std::atomic<int>& reads_;
  std::atomic<size_t> largest_write_{0};
};

TEST(Http, ReplyLeavesInOneWrite) {
  // Whatever its size, a reply's DATA frames and its END frame reach the
  // stream as one Write; the frame counter still counts frames.
  telemetry::Counter& frames = telemetry::MetricsRegistry::Global().GetCounter(
      "laminar_net_frames_written_total");
  std::atomic<int> writes{0};
  std::atomic<int> reads{0};
  DuplexPipe pipe = CreatePipe();
  HttpConnection server(
      std::make_unique<CountingStream>(std::move(pipe.first), writes, reads),
      HttpConnection::Mode::kStreaming,
      [](const HttpRequest& req, StreamResponder& out) {
        out.Reply(std::string(std::stoul(req.body), 'r'), 200);
      });
  HttpConnection client(std::move(pipe.second),
                        HttpConnection::Mode::kStreaming);
  for (size_t size : {size_t{0}, size_t{3}, HttpConnection::kMaxFrameSize,
                      size_t{100'000}}) {
    const int writes_before = writes.load();
    const uint64_t frames_before = frames.Value();
    HttpRequest req;
    req.path = "/reply";
    req.body = std::to_string(size);
    auto resp = client.Call(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->first, 200);
    EXPECT_EQ(resp->second, std::string(size, 'r'));
    EXPECT_EQ(writes.load() - writes_before, 1) << "size=" << size;
    const uint64_t data_frames =
        (size + HttpConnection::kMaxFrameSize - 1) /
        HttpConnection::kMaxFrameSize;
    // The client's HEADERS frame, the reply's DATA frames and its END.
    EXPECT_EQ(frames.Value() - frames_before, 1 + data_frames + 1)
        << "size=" << size;
  }
}

TEST(Http, LongReplyLeavesInBoundedWrites) {
  // A reply longer than kMaxFramesPerWrite DATA frames takes further
  // Writes, none carrying more than that many frames and the END frame, so
  // one reply never holds the write lock for its whole length. The client
  // still reads it whole, in either mode.
  constexpr size_t kBody = 300'000;
  const size_t data_frames =
      (kBody + HttpConnection::kMaxFrameSize - 1) /
      HttpConnection::kMaxFrameSize;
  const size_t header = 13;  // u32 length, u8 type, u64 stream id
  const size_t largest_allowed =
      HttpConnection::kMaxFramesPerWrite *
          (header + HttpConnection::kMaxFrameSize) +
      header + 4;
  for (HttpConnection::Mode mode :
       {HttpConnection::Mode::kStreaming, HttpConnection::Mode::kBatch}) {
    std::atomic<int> writes{0};
    std::atomic<int> reads{0};
    DuplexPipe pipe = CreatePipe();
    auto counting = std::make_unique<CountingStream>(std::move(pipe.first),
                                                     writes, reads);
    const CountingStream& stream = *counting;
    HttpConnection server(std::move(counting), mode,
                          [](const HttpRequest&, StreamResponder& out) {
                            out.Reply(std::string(kBody, 'r'), 200);
                          });
    HttpConnection client(std::move(pipe.second), mode);
    HttpRequest req;
    req.path = "/long";
    auto resp = client.Call(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->first, 200);
    EXPECT_EQ(resp->second, std::string(kBody, 'r'));
    EXPECT_EQ(static_cast<size_t>(writes.load()),
              (data_frames + HttpConnection::kMaxFramesPerWrite - 1) /
                  HttpConnection::kMaxFramesPerWrite);
    EXPECT_LE(stream.largest_write(), largest_allowed);
  }
}

TEST(Http, BatchReplyLeavesInOneWrite) {
  // Batch mode buffers every chunk until End, then writes the body and the
  // END frame once; the client still sees one whole body.
  std::atomic<int> writes{0};
  std::atomic<int> reads{0};
  DuplexPipe pipe = CreatePipe();
  HttpConnection server(
      std::make_unique<CountingStream>(std::move(pipe.first), writes, reads),
      HttpConnection::Mode::kBatch,
      [](const HttpRequest&, StreamResponder& out) {
        out.SendChunk("first\n");
        out.SendChunk(std::string(40'000, 'b'));
        out.Reply("last\n", 200);
      });
  HttpConnection client(std::move(pipe.second), HttpConnection::Mode::kBatch);
  HttpRequest req;
  req.path = "/batch";
  auto stream = client.Send(req);
  auto body = stream->NextChunk();
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(*body, "first\n" + std::string(40'000, 'b') + "last\n");
  EXPECT_FALSE(stream->NextChunk().has_value());
  EXPECT_EQ(stream->status(), 200);
  EXPECT_EQ(writes.load(), 1);
}

/// `n` HEADERS frames for `path`; request i carries body "req-i", except
/// that request n/2 carries `large_body` bytes when that is non-zero.
std::string RequestFrames(int n, size_t large_body,
                          std::vector<std::string>& bodies,
                          const std::string& path = "/decode") {
  ByteWriter w;
  for (int i = 0; i < n; ++i) {
    HttpRequest req;
    req.path = path;
    req.body = i == n / 2 && large_body > 0 ? std::string(large_body, 'p')
                                            : "req-" + std::to_string(i);
    bodies.push_back(req.body);
    std::string json = req.ToValue().ToJson();
    w.PutU32(static_cast<uint32_t>(json.size()));
    w.PutU8(1);  // HEADERS
    w.PutU64(static_cast<uint64_t>(2 * i + 1));
    w.PutRaw(json);
  }
  return std::move(w).Take();
}

struct Decoded {
  std::vector<std::string> bodies;  ///< sorted
  int reads = 0;                    ///< the connection's Reads, EOF included
};

/// Writes `bytes` in one Write into a pipe of `capacity` (0 = unbounded)
/// whose other end serves every request; returns what the handler saw.
/// Requests decoded from one burst run side by side on the pool, so the
/// bodies come back sorted, not in arrival order.
Decoded DecodeRequests(const std::string& bytes, size_t expected,
                       size_t capacity) {
  std::atomic<int> writes{0};
  std::atomic<int> reads{0};
  std::mutex mu;
  Decoded out;
  DuplexPipe pipe = CreatePipe(capacity);
  auto conn = std::make_unique<HttpConnection>(
      std::make_unique<CountingStream>(std::move(pipe.first), writes, reads),
      HttpConnection::Mode::kStreaming,
      StreamHandler(
          [&](const HttpRequest& req, StreamResponder& responder) {
            {
              std::scoped_lock lock(mu);
              out.bodies.push_back(req.body);
            }
            responder.End(200);
          },
          [](const HttpRequest&) { return true; }));
  std::thread drain([&] {  // the replies, so a bounded pipe never stalls
    char buf[256];
    while (pipe.second->Read(buf, sizeof buf) > 0) {
    }
  });
  EXPECT_TRUE(pipe.second->Write(bytes));
  pipe.second->CloseWrite();
  for (int i = 0; i < 2000; ++i) {
    {
      std::scoped_lock lock(mu);
      if (out.bodies.size() >= expected) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  conn.reset();  // joins the reader: its EOF Read is counted
  drain.join();
  out.reads = reads.load();
  std::sort(out.bodies.begin(), out.bodies.end());
  return out;
}

TEST(Http, FramesSplitAtEveryByteDecode) {
  // A pipe of capacity 1 hands the reader one byte per Read, so every
  // header and payload arrives in fragments (the old ReadExact case).
  std::vector<std::string> bodies;
  const std::string bytes = RequestFrames(20, 0, bodies);
  Decoded decoded = DecodeRequests(bytes, bodies.size(), /*capacity=*/1);
  std::sort(bodies.begin(), bodies.end());
  EXPECT_EQ(decoded.bodies, bodies);
}

TEST(Http, BurstOfFramesDecodesFromFewReads) {
  // 100 frames in one Write: the frames before the large one come out of
  // one Read, the rest of the large payload (longer than the read buffer)
  // is read straight into its string, the frames after it share one more
  // Read, and the last Read sees EOF. Two Reads a frame would be 201.
  std::vector<std::string> bodies;
  const std::string bytes = RequestFrames(100, 100'000, bodies);
  Decoded decoded = DecodeRequests(bytes, bodies.size(), /*capacity=*/0);
  std::sort(bodies.begin(), bodies.end());
  EXPECT_EQ(decoded.bodies, bodies);
  EXPECT_LE(decoded.reads, 4);
}

// ---- reader-thread dispatch ----------------------------------------------

/// Runs "/read" on the connection's reader thread, every other path on the
/// handler pool.
StreamHandler ReaderRule(StreamHandler::Fn fn) {
  return StreamHandler(std::move(fn), [](const HttpRequest& req) {
    return req.path == "/read";
  });
}

struct DispatchCounts {
  uint64_t reader = 0;
  uint64_t pool = 0;
  static DispatchCounts Now() {
    auto& reg = telemetry::MetricsRegistry::Global();
    return {reg.GetCounter("laminar_net_requests_total", "dispatch=\"reader\"")
                .Value(),
            reg.GetCounter("laminar_net_requests_total", "dispatch=\"pool\"")
                .Value()};
  }
};

TEST(Http, ReaderRuleRequestsRunOnTheReaderThread) {
  std::mutex mu;
  std::set<std::thread::id> handler_threads;
  Harness h(HttpConnection::Mode::kStreaming,
            ReaderRule([&](const HttpRequest& req, StreamResponder& out) {
              {
                std::scoped_lock lock(mu);
                handler_threads.insert(std::this_thread::get_id());
              }
              out.Reply(req.body, 200);
            }));
  const DispatchCounts before = DispatchCounts::Now();
  for (int i = 0; i < 1000; ++i) {
    HttpRequest req;
    req.path = "/read";
    req.body = std::to_string(i);
    auto resp = h.client->Call(req);
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->second, req.body);
  }
  const DispatchCounts after = DispatchCounts::Now();
  EXPECT_EQ(handler_threads.size(), 1u);  // the one reader thread
  EXPECT_EQ(handler_threads.count(std::this_thread::get_id()), 0u);
  EXPECT_EQ(h.server->handler_threads(), 0u);  // no pool worker spawned
  EXPECT_EQ(after.reader - before.reader, 1000u);
  EXPECT_EQ(after.pool - before.pool, 0u);
}

TEST(Http, SlowPoolRequestDoesNotDelayALaterRead) {
  // The slow request goes to the pool. The read sent after it finds it in
  // flight, so it goes to the pool as well, on a second worker, and
  // answers while the slow request still runs.
#ifdef LAMINAR_TSAN
  static constexpr int kSlowSleepMs = 400;
#else
  static constexpr int kSlowSleepMs = 80;
#endif
  Harness h(HttpConnection::Mode::kStreaming,
            ReaderRule([](const HttpRequest& req, StreamResponder& out) {
              if (req.path == "/slow") {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(kSlowSleepMs));
              }
              out.Reply(req.path, 200);
            }));
  HttpRequest slow;
  slow.path = "/slow";
  HttpRequest read;
  read.path = "/read";
  const DispatchCounts before = DispatchCounts::Now();
  auto slow_stream = h.client->Send(slow);
  auto read_stream = h.client->Send(read);
  Stopwatch watch;
  EXPECT_EQ(read_stream->ReadAll(), "/read");
  EXPECT_LT(watch.ElapsedMillis(), 0.75 * kSlowSleepMs);
  EXPECT_EQ(slow_stream->ReadAll(), "/slow");
  const DispatchCounts after = DispatchCounts::Now();
  EXPECT_EQ(h.server->handler_threads(), 2u);
  EXPECT_EQ(after.pool - before.pool, 2u);
  EXPECT_EQ(after.reader - before.reader, 0u);
}

TEST(Http, ReadsArrivingTogetherRunSideBySide) {
  // Two reader-rule requests reach the connection in one burst. The first
  // finds the second already buffered and the second finds the first in
  // flight, so both go to the pool and run at the same time: each handler
  // waits, up to a bound, for the other to start.
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  int finished = 0;
  int overlapped = 0;
  DuplexPipe pipe = CreatePipe();
  auto server = std::make_unique<HttpConnection>(
      std::move(pipe.first), HttpConnection::Mode::kStreaming,
      ReaderRule([&](const HttpRequest& req, StreamResponder& out) {
        {
          std::unique_lock lock(mu);
          ++started;
          cv.notify_all();
          if (cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return started >= 2; })) {
            ++overlapped;
          }
        }
        out.Reply(req.body, 200);
        std::scoped_lock lock(mu);
        ++finished;
        cv.notify_all();
      }));
  std::thread drain([&] {  // the replies
    char buf[256];
    while (pipe.second->Read(buf, sizeof buf) > 0) {
    }
  });
  const DispatchCounts before = DispatchCounts::Now();
  std::vector<std::string> bodies;
  EXPECT_TRUE(pipe.second->Write(RequestFrames(2, 0, bodies, "/read")));
  {
    std::unique_lock lock(mu);
    cv.wait_for(lock, std::chrono::seconds(15), [&] { return finished == 2; });
    EXPECT_EQ(overlapped, 2);
  }
  const DispatchCounts after = DispatchCounts::Now();
  EXPECT_EQ(after.pool - before.pool, 2u);
  EXPECT_EQ(after.reader - before.reader, 0u);
  EXPECT_EQ(server->handler_threads(), 2u);
  pipe.second->CloseWrite();
  server.reset();
  drain.join();
}

TEST(Http, BareCallableKeepsPoolDispatch) {
  Harness h(HttpConnection::Mode::kStreaming,
            [](const HttpRequest& req, StreamResponder& out) {
              out.Reply(req.path, 200);
            });
  const DispatchCounts before = DispatchCounts::Now();
  HttpRequest req;
  req.path = "/read";
  auto resp = h.client->Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->second, "/read");
  const DispatchCounts after = DispatchCounts::Now();
  EXPECT_EQ(h.server->handler_threads(), 1u);
  EXPECT_EQ(after.pool - before.pool, 1u);
  EXPECT_EQ(after.reader - before.reader, 0u);
}

// ---- frame-codec hardening (hostile bytes) -------------------------------

namespace {

struct HostileOutcome {
  bool closed = false;           // connection shut itself down within 250ms
  uint64_t protocol_errors = 0;  // laminar_net_protocol_errors_total delta
};

/// Feeds `bytes` into a serving HttpConnection over a pipe, half-closes the
/// feed, and reports how the connection ended. Every feed must end with the
/// connection closed — via ProtocolError for hostile headers (counted), or
/// cleanly at EOF for merely truncated input (not counted). A hang is
/// caught by the ctest timeout, UB by the sanitizer configs.
HostileOutcome FeedHostileBytes(std::string_view bytes) {
  telemetry::Counter& errors = telemetry::MetricsRegistry::Global().GetCounter(
      "laminar_net_protocol_errors_total");
  uint64_t errors_before = errors.Value();
  DuplexPipe pipe = CreatePipe();
  HttpConnection conn(std::move(pipe.first), HttpConnection::Mode::kStreaming,
                      [](const HttpRequest&, StreamResponder& out) {
                        out.End(200);
                      });
  pipe.second->Write(bytes);
  pipe.second->CloseWrite();
  HostileOutcome out;
  for (int i = 0; i < 50 && !(out.closed = conn.is_closed()); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pipe.second->CloseRead();
  out.protocol_errors = errors.Value() - errors_before;
  return out;
}

std::string ValidHeadersFrame() {
  HttpRequest req;
  req.path = "/x";
  req.body = "payload";
  std::string json = req.ToValue().ToJson();
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(json.size()));
  w.PutU8(1);  // HEADERS
  w.PutU64(1);
  w.PutRaw(json);
  return w.data();
}

}  // namespace

TEST(HttpHardening, OversizedPayloadLenClosesConnection) {
  ByteWriter w;
  w.PutU32(0xFFFFFFFFu);  // 4 GiB declared length: reject before allocating
  w.PutU8(1);
  w.PutU64(1);
  HostileOutcome out = FeedHostileBytes(w.data());
  EXPECT_TRUE(out.closed);
  EXPECT_GE(out.protocol_errors, 1u);
}

TEST(HttpHardening, UnknownFrameTypeClosesConnection) {
  ByteWriter w;
  w.PutU32(0);
  w.PutU8(42);  // not a codec frame type
  w.PutU64(1);
  HostileOutcome out = FeedHostileBytes(w.data());
  EXPECT_TRUE(out.closed);
  EXPECT_GE(out.protocol_errors, 1u);
}

TEST(HttpHardening, DataForUnknownStreamClosesConnection) {
  ByteWriter w;
  w.PutU32(4);
  w.PutU8(2);     // DATA
  w.PutU64(999);  // never initiated
  w.PutRaw("boom");
  HostileOutcome out = FeedHostileBytes(w.data());
  EXPECT_TRUE(out.closed);
  EXPECT_GE(out.protocol_errors, 1u);
}

TEST(HttpHardening, TruncatedFramesEndCleanlyAtEof) {
  std::string frame = ValidHeadersFrame();
  // Every proper prefix is a truncated frame; EOF mid-frame must close the
  // connection quietly — no protocol error, no hang, no stuck destructor.
  for (size_t cut : {size_t{1}, size_t{4}, size_t{12}, frame.size() - 1}) {
    HostileOutcome out =
        FeedHostileBytes(std::string_view(frame).substr(0, cut));
    EXPECT_TRUE(out.closed) << "cut=" << cut;
    EXPECT_EQ(out.protocol_errors, 0u) << "cut=" << cut;
  }
}

TEST(HttpHardening, FuzzedPrefixTortureNeverHangsOrCrashes) {
  // Replay randomly mutated prefixes of a valid frame stream. Whatever the
  // bytes decode to — garbage lengths, bogus types, half frames — feeding
  // and tearing down the connection must terminate without crash or hang.
  std::string valid = ValidHeadersFrame() + ValidHeadersFrame();
  Rng rng(0xf0e1d2c3);
  for (int round = 0; round < 60; ++round) {
    std::string bytes = valid.substr(0, rng.NextBelow(valid.size() + 1));
    for (size_t flips = rng.NextBelow(4); flips > 0 && !bytes.empty();
         --flips) {
      size_t pos = rng.NextBelow(bytes.size());
      bytes[pos] = static_cast<char>(rng.NextU64());
    }
    DuplexPipe pipe = CreatePipe();
    {
      HttpConnection conn(std::move(pipe.first),
                          HttpConnection::Mode::kStreaming,
                          [](const HttpRequest&, StreamResponder& out) {
                            out.End(200);
                          });
      pipe.second->Write(bytes);
      pipe.second->CloseWrite();
      // Give the reader a moment to chew on the bytes, then tear down.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      pipe.second->CloseRead();
    }
  }
  SUCCEED();  // termination without crash/hang IS the property
}

// ---- content-length hardening (request smuggling classics) ---------------

Value HeadersWith(std::initializer_list<std::pair<const char*, Value>> items) {
  Value headers = Value::MakeObject();
  for (const auto& [name, value] : items) headers[name] = value;
  return headers;
}

Result<HttpRequest> ParseWithHeaders(Value headers, std::string body) {
  HttpRequest req;
  req.path = "/x";
  req.body = std::move(body);
  req.headers = std::move(headers);
  return HttpRequest::FromValue(req.ToValue());
}

TEST(HttpHardening, ContentLengthMustBeStrictDigits) {
  // The classic parser-differential seeds: sign prefixes, whitespace,
  // decimals, hex. Every one is a clean rejection, not a best-effort parse.
  for (const char* bad : {"+7", "-7", " 7", "7 ", "7.0", "0x7", "7e1", ""}) {
    Result<HttpRequest> r =
        ParseWithHeaders(HeadersWith({{"content-length", Value(bad)}}),
                         "payload");
    EXPECT_FALSE(r.ok()) << "accepted content-length '" << bad << "'";
  }
  // Negative integers fail the digit scan via their minus sign.
  EXPECT_FALSE(ParseWithHeaders(
                   HeadersWith({{"content-length", Value(int64_t{-7})}}), "")
                   .ok());
  // A correct value — string or integer, any case — passes.
  EXPECT_TRUE(ParseWithHeaders(
                  HeadersWith({{"content-length", Value("7")}}), "payload")
                  .ok());
  EXPECT_TRUE(ParseWithHeaders(
                  HeadersWith({{"Content-Length", Value(int64_t{7})}}),
                  "payload")
                  .ok());
}

TEST(HttpHardening, ContentLengthOverflowAndCapRejected) {
  // More digits than uint64 can hold: the per-digit cap check fires long
  // before any wraparound could be observed.
  EXPECT_FALSE(
      ParseWithHeaders(
          HeadersWith({{"content-length", Value("99999999999999999999999999")}}),
          "x")
          .ok());
  // Just past the frame payload cap is refused even as a clean number.
  std::string over = std::to_string(HttpConnection::kMaxFramePayload + 1);
  EXPECT_FALSE(
      ParseWithHeaders(HeadersWith({{"content-length", Value(over)}}), "x")
          .ok());
}

TEST(HttpHardening, ContentLengthDuplicatesMustAgree) {
  // Case-variant duplicates that disagree are the smuggling primitive.
  EXPECT_FALSE(ParseWithHeaders(
                   HeadersWith({{"Content-Length", Value("7")},
                                {"content-length", Value("8")}}),
                   "payload")
                   .ok());
  // Agreeing duplicates are odd but harmless.
  EXPECT_TRUE(ParseWithHeaders(
                  HeadersWith({{"Content-Length", Value("7")},
                               {"content-length", Value("7")}}),
                  "payload")
                  .ok());
  // And the declared value must match the actual body.
  EXPECT_FALSE(
      ParseWithHeaders(HeadersWith({{"content-length", Value("6")}}), "payload")
          .ok());
}

TEST(HttpHardening, BadContentLengthIsCounted400NotFatal) {
  telemetry::Counter& errors = telemetry::MetricsRegistry::Global().GetCounter(
      "laminar_net_protocol_errors_total");
  Harness h(HttpConnection::Mode::kStreaming,
            [](const HttpRequest& req, StreamResponder& out) {
              out.SendChunk(req.body);
              out.End(200);
            });
  uint64_t errors_before = errors.Value();

  HttpRequest bad;
  bad.path = "/x";
  bad.body = "payload";
  bad.headers = HeadersWith({{"content-length", Value("+7")}});
  auto resp = h.client->Call(bad);
  ASSERT_TRUE(resp.ok());  // transport-level success: a clean reply arrived
  EXPECT_EQ(resp->first, 400);
  EXPECT_EQ(errors.Value(), errors_before + 1);

  // The violation is per stream, not per connection: the same connection
  // keeps serving well-formed requests afterwards.
  HttpRequest good;
  good.path = "/x";
  good.body = "after";
  good.headers = HeadersWith({{"content-length", Value("5")}});
  auto ok = h.client->Call(good);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->first, 200);
  EXPECT_EQ(ok->second, "after");
}

TEST(Http, ManySequentialCallsReuseConnection) {
  Harness h(HttpConnection::Mode::kStreaming,
            [](const HttpRequest& req, StreamResponder& out) {
              out.SendChunk(req.body);
              out.End(200);
            });
  for (int i = 0; i < 50; ++i) {
    HttpRequest req;
    req.path = "/n";
    req.body = std::to_string(i);
    auto resp = h.client->Call(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->second, std::to_string(i));
  }
}

}  // namespace
}  // namespace laminar::net
