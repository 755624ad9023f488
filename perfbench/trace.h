// Measurement plumbing for the end-to-end benchmark: spans, the decorators
// that wrap the program's public seams (client channel, message handler),
// and process-level counters.  Everything here lives outside src/; the
// program under test is only ever called through its public interfaces.
#ifndef MOIRA_PERFBENCH_TRACE_H_
#define MOIRA_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/channel.h"

namespace perfbench {

// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

// One timed interval at a layer boundary.  `req` is shared by every span of
// one client operation; `parent` is the id of the span that caused this one
// (0 for an operation's root span).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t req = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Spans recorded by one thread.  Ids encode the buffer index so buffers never
// need to coordinate: id = (index << 40) | (sequence + 1).
class SpanBuffer {
 public:
  explicit SpanBuffer(uint64_t index) : index_(index) {}
  // Id the next Add() without an explicit id would get; lets a caller hand
  // its span id to children before the span itself has ended.
  uint64_t NextId() { return (index_ << 40) | ++next_; }
  void Add(uint64_t id, const char* name, uint64_t parent, uint64_t req,
           int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{id, parent, req, name, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t index_;
  uint64_t next_ = 0;
  std::vector<Span> spans_;
};

// Owns every thread's span buffer; spans stay in memory until WriteTsv at
// the end of the run.
class Tracer {
 public:
  SpanBuffer* NewBuffer();
  // One line per span: id, parent, req, name, start_ns, end_ns.
  bool WriteTsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

// Set in the request id of a transport probe (an mr_noop sent between
// operations): its server span is recorded, but it is not an operation and
// its handling time is not a server.handler sample.
inline constexpr uint64_t kProbeRequestBit = uint64_t{1} << 62;

// What a generator thread publishes about the operation it has in flight on
// its connection, so the server-side decorator can parent its spans.
struct SlotContext {
  std::atomic<uint64_t> req{0};
  std::atomic<uint64_t> span{0};
};

// Client-side byte/frame accounting, plus payload capture for the codec
// replay.  One per connection; touched only by the owning generator thread.
struct ChannelTap {
  uint64_t request_bytes = 0;
  uint64_t requests = 0;
  uint64_t reply_bytes = 0;
  uint64_t reply_frames = 0;
  bool capture = false;  // record the next operation's frames
  struct Captured {
    std::string request_frame;
    std::vector<std::string> reply_payloads;
  };
  std::vector<Captured> captured;
};

// ClientChannel decorator installed by the MrClient connector.
class TappedChannel final : public moira::ClientChannel {
 public:
  TappedChannel(std::unique_ptr<moira::ClientChannel> inner, ChannelTap* tap)
      : inner_(std::move(inner)), tap_(tap) {}
  int32_t Send(std::string_view framed) override;
  int32_t Recv(std::string* payload) override;

 private:
  std::unique_ptr<moira::ClientChannel> inner_;
  ChannelTap* tap_;
};

// Pushes observed while a primary batch is being handled.  The quorum gate
// pushes synchronously on the thread that handles the batch, so a
// thread-local pointer ties each push to the batch that caused it.
struct PushRecord {
  int64_t start_ns;
  int64_t end_ns;
};

// MessageHandler decorator between TcpServer and the server.  Forwards
// OnMessageBatch as one batch (the server's read-pool parallelism is kept),
// times it, and records one server span per item parented to that item's
// client span, with the batch's replica pushes as children.  Runs on the
// transport thread only.
class TracedHandler final : public moira::MessageHandler {
 public:
  TracedHandler(moira::MessageHandler* inner, SpanBuffer* spans,
                std::vector<SlotContext>* slots)
      : inner_(inner), spans_(spans), slots_(slots) {}

  std::string OnMessage(uint64_t conn_id, std::string_view payload) override;
  void OnMessageBatch(std::vector<BatchItem>* batch) override;
  void OnConnect(uint64_t conn_id, std::string peer) override;
  void OnDisconnect(uint64_t conn_id) override { inner_->OnDisconnect(conn_id); }

  // Called after every batch (on the transport thread), e.g. to sample
  // replica lag.
  void set_after_batch(std::function<void()> fn) { after_batch_ = std::move(fn); }

  uint64_t batches() const { return batches_; }
  uint64_t items() const { return items_; }
  // Per-item handler time (the batch's duration), nanoseconds; transport
  // probes left out.
  const std::vector<int64_t>& handler_ns() const { return handler_ns_; }

 private:
  moira::MessageHandler* inner_;
  SpanBuffer* spans_;
  std::vector<SlotContext>* slots_;
  std::map<uint64_t, size_t> slot_of_conn_;  // accept order = generator order
  std::function<void()> after_batch_;
  uint64_t batches_ = 0;
  uint64_t items_ = 0;
  std::vector<int64_t> handler_ns_;
};

// MessageHandler decorator in front of a replica: times every kReplPush the
// replica handles and reports it to the enclosing primary batch.
class ReplicaTap final : public moira::MessageHandler {
 public:
  explicit ReplicaTap(moira::MessageHandler* inner) : inner_(inner) {}

  std::string OnMessage(uint64_t conn_id, std::string_view payload) override;
  void OnConnect(uint64_t conn_id, std::string peer) override {
    inner_->OnConnect(conn_id, std::move(peer));
  }
  void OnDisconnect(uint64_t conn_id) override { inner_->OnDisconnect(conn_id); }

  const std::vector<int64_t>& push_ns() const { return push_ns_; }

 private:
  moira::MessageHandler* inner_;
  std::vector<int64_t> push_ns_;
};

// Process-wide resource counters: CPU time and voluntary context switches
// (getrusage), peak RSS (VmHWM), write syscalls (/proc/self/io).
struct ProcSnapshot {
  int64_t user_us = 0;
  int64_t sys_us = 0;
  int64_t vcsw = 0;
  int64_t syscw = 0;
  int64_t max_rss_kb = 0;
  static ProcSnapshot Take();
};

// Socket system calls (send, recv, poll, accept) made by the whole process
// while counting is enabled; see syscalls.cc.
void EnableSyscallCounting(bool on);
uint64_t SocketSyscalls();

// Total size of the regular files under `dir` (0 if it does not exist).
int64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // MOIRA_PERFBENCH_TRACE_H_
