#include "perfbench/trace.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/comerr/moira_errors.h"
#include "src/protocol/wire.h"

namespace perfbench {
namespace {

// Pushes of the primary batch currently being handled on this thread.
thread_local std::vector<PushRecord>* tls_batch_pushes = nullptr;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanBuffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(buffers_.size() + 1));
  return buffers_.back().get();
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans()) {
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.req), s.name,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

int32_t TappedChannel::Send(std::string_view framed) {
  tap_->request_bytes += framed.size();
  ++tap_->requests;
  if (tap_->capture) {
    tap_->captured.push_back(ChannelTap::Captured{std::string(framed), {}});
  }
  return inner_->Send(framed);
}

int32_t TappedChannel::Recv(std::string* payload) {
  int32_t code = inner_->Recv(payload);
  if (code == moira::MR_SUCCESS) {
    tap_->reply_bytes += payload->size() + 4;  // + the 32-bit frame header
    ++tap_->reply_frames;
    if (tap_->capture && !tap_->captured.empty()) {
      tap_->captured.back().reply_payloads.push_back(*payload);
    }
  }
  return code;
}

std::string TracedHandler::OnMessage(uint64_t conn_id, std::string_view payload) {
  return inner_->OnMessage(conn_id, payload);
}

void TracedHandler::OnConnect(uint64_t conn_id, std::string peer) {
  slot_of_conn_[conn_id] = slot_of_conn_.size();
  inner_->OnConnect(conn_id, std::move(peer));
}

void TracedHandler::OnMessageBatch(std::vector<BatchItem>* batch) {
  std::vector<PushRecord> pushes;
  tls_batch_pushes = &pushes;
  const int64_t start = NowNs();
  inner_->OnMessageBatch(batch);
  const int64_t end = NowNs();
  tls_batch_pushes = nullptr;
  ++batches_;
  items_ += batch->size();
  for (const BatchItem& item : *batch) {
    auto it = slot_of_conn_.find(item.conn_id);
    if (it == slot_of_conn_.end() || it->second >= slots_->size()) {
      handler_ns_.push_back(end - start);
      continue;
    }
    const SlotContext& slot = (*slots_)[it->second];
    const uint64_t req = slot.req.load(std::memory_order_acquire);
    if ((req & kProbeRequestBit) == 0) {
      handler_ns_.push_back(end - start);
    }
    const uint64_t id = spans_->NextId();
    spans_->Add(id, "server.batch", slot.span.load(std::memory_order_acquire), req, start,
                end);
    for (const PushRecord& push : pushes) {
      spans_->Add(spans_->NextId(), "repl.push", id, req, push.start_ns, push.end_ns);
    }
  }
  if (after_batch_) {
    after_batch_();
  }
}

std::string ReplicaTap::OnMessage(uint64_t conn_id, std::string_view payload) {
  const int64_t start = NowNs();
  std::string reply = inner_->OnMessage(conn_id, payload);
  const int64_t end = NowNs();
  std::optional<moira::MrRequest> request = moira::DecodeRequest(payload);
  if (request.has_value() && request->major == moira::MajorRequest::kReplPush) {
    push_ns_.push_back(end - start);
    if (tls_batch_pushes != nullptr) {
      tls_batch_pushes->push_back(PushRecord{start, end});
    }
  }
  return reply;
}

ProcSnapshot ProcSnapshot::Take() {
  ProcSnapshot s;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    s.user_us = static_cast<int64_t>(ru.ru_utime.tv_sec) * 1000000 + ru.ru_utime.tv_usec;
    s.sys_us = static_cast<int64_t>(ru.ru_stime.tv_sec) * 1000000 + ru.ru_stime.tv_usec;
    s.vcsw = ru.ru_nvcsw;
  }
  // VmHWM, not ru_maxrss: after fork+exec ru_maxrss also carries the
  // parent's resident size, so a large parent process would leak into it.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      s.max_rss_kb = std::stoll(line.substr(6));
    }
  }
  std::ifstream io("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (io >> key >> value) {
    if (key == "syscw:") {
      s.syscw = value;
    }
  }
  return s;
}

int64_t DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  int64_t total = 0;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<int64_t>(it->file_size(ec));
    }
  }
  return total;
}

}  // namespace perfbench
