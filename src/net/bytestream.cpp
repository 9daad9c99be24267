#include "net/bytestream.hpp"

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>

namespace laminar::net {
namespace {

std::atomic<uint64_t> g_bytes_written{0};

/// One direction of a pipe: a byte FIFO with close semantics. A non-zero
/// capacity bounds the buffer: writers block until the reader drains,
/// mirroring kernel socket-buffer backpressure.
struct Channel {
  explicit Channel(size_t capacity) : capacity(capacity) {}

  std::mutex mu;
  std::condition_variable cv;        ///< readers wait here
  std::condition_variable not_full;  ///< bounded-mode writers wait here
  std::string buffer;
  const size_t capacity;  ///< 0 = unbounded
  bool closed = false;

  bool Write(std::string_view data) {
    size_t total = data.size();
    std::unique_lock lock(mu);
    while (!data.empty()) {
      not_full.wait(lock, [&] {
        return closed || capacity == 0 || buffer.size() < capacity;
      });
      if (closed) return false;
      size_t n = capacity == 0
                     ? data.size()
                     : std::min(data.size(), capacity - buffer.size());
      buffer.append(data.data(), n);
      data.remove_prefix(n);
      cv.notify_all();
    }
    g_bytes_written.fetch_add(total, std::memory_order_relaxed);
    return true;
  }

  size_t Read(char* out, size_t max) {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return closed || !buffer.empty(); });
    if (buffer.empty()) return 0;  // closed and drained -> EOF
    size_t n = std::min(max, buffer.size());
    std::memcpy(out, buffer.data(), n);
    buffer.erase(0, n);
    not_full.notify_all();
    return n;
  }

  void Close() {
    {
      std::scoped_lock lock(mu);
      closed = true;
    }
    cv.notify_all();
    not_full.notify_all();
  }
};

class PipeEnd final : public ByteStream {
 public:
  PipeEnd(std::shared_ptr<Channel> out, std::shared_ptr<Channel> in)
      : out_(std::move(out)), in_(std::move(in)) {}
  ~PipeEnd() override {
    out_->Close();
    in_->Close();
  }

  bool Write(std::string_view data) override { return out_->Write(data); }
  size_t Read(char* buf, size_t max) override { return in_->Read(buf, max); }
  void CloseWrite() override { out_->Close(); }
  void CloseRead() override { in_->Close(); }

 private:
  std::shared_ptr<Channel> out_;
  std::shared_ptr<Channel> in_;
};

}  // namespace

DuplexPipe CreatePipe(size_t capacity) {
  auto ab = std::make_shared<Channel>(capacity);
  auto ba = std::make_shared<Channel>(capacity);
  DuplexPipe pipe;
  pipe.first = std::make_unique<PipeEnd>(ab, ba);
  pipe.second = std::make_unique<PipeEnd>(ba, ab);
  return pipe;
}

uint64_t PipeCounters::BytesWritten() {
  return g_bytes_written.load(std::memory_order_relaxed);
}

void PipeCounters::Reset() {
  g_bytes_written.store(0, std::memory_order_relaxed);
}

}  // namespace laminar::net
