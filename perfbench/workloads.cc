#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <thread>

#include "perfbench/site.h"
#include "perfbench/trace.h"
#include "src/backup/backup.h"
#include "src/comerr/moira_errors.h"
#include "src/common/random.h"
#include "src/core/registry.h"
#include "src/core/schema.h"
#include "src/dcm/delta.h"
#include "src/protocol/wire.h"

namespace perfbench {
namespace {

using moira::MR_SUCCESS;
using moira::SplitMix64;
using moira::Tuple;

// Thread budget for the 4-vCPU host this benchmark is sized for: generator
// threads + the transport thread + read-pool workers <= 4, and one connection
// per generator thread.  Fixed rather than derived from nproc so that runs on
// different hosts offer the same load.
constexpr int kLookupClients = 2;     // + poll thread + 1 read-pool worker
constexpr int kTermStartClients = 2;  // + poll thread
// Ops whose frames are kept for the codec replay, per connection.
constexpr size_t kCaptureOps = 2000;
// Lookup ops replayed through the peeled layers after the run.
constexpr size_t kPeelOps = 20000;
// Journal lines replayed into the bench-owned journal.
constexpr size_t kJournalReplay = 20000;
// Lookup replies kept (as digests) for the oracle, per connection.
constexpr size_t kMaxSampled = 16384;
// Traced lookup: one transport probe (mr_noop) after every this many ops.
constexpr uint64_t kProbeEvery = 32;
// Fixes which keys of the site are popular (see LookupMix).
constexpr uint64_t kPopularitySeed = 1988;

enum class Kind { kRead, kAccess, kAddUser, kRegister, kSetPobox, kAddMember, kDelMember,
                  kQuota, kZephyr, kAddMachine, kMachineToCluster };

struct Op {
  Kind kind = Kind::kRead;
  std::string query;
  std::vector<std::string> args;
  bool is_write() const { return kind != Kind::kRead && kind != Kind::kAccess; }
};

uint64_t Mix(uint64_t a, uint64_t b) {
  SplitMix64 rng(a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull));
  return rng.Next();
}

template <typename T>
void Shuffle(std::vector<T>* v, uint64_t seed) {
  SplitMix64 rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Below(i)]);
  }
}

// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  size_t Sample(SplitMix64& rng) const {
    const double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
    size_t i = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// A key set whose popularity ranks are a seeded permutation of the keys.
class SkewedKeys {
 public:
  SkewedKeys(std::vector<std::string> keys, uint64_t seed)
      : keys_(std::move(keys)), zipf_(keys_.size(), 0.99) {
    Shuffle(&keys_, seed);
  }
  const std::string& Pick(SplitMix64& rng) const { return keys_[zipf_.Sample(rng)]; }

 private:
  std::vector<std::string> keys_;
  Zipf zipf_;
};

// The lookup mix: point reads with Zipf-skewed keys, a minority of recursive
// membership queries, access checks (the only requests the per-connection
// access cache serves), and an occasional bulk retrieval.  The shares and the
// Zipf exponent are assumptions, not measured Moira traffic (README.md,
// "Assumed traffic"); they stay constants so runs remain comparable.  Which
// keys are popular is a fixed property of the workload (a constant
// permutation); the seed only varies the draws, so one hot but expensive key
// cannot make one seed's run unlike another's.
class LookupMix {
 public:
  explicit LookupMix(const SiteKeys& keys)
      : logins_(keys.logins, kPopularitySeed),
        machines_(keys.machines, kPopularitySeed + 1),
        lists_(keys.lists, kPopularitySeed + 2) {}

  Op Next(SplitMix64& rng) const {
    const uint64_t roll = rng.Below(1000);
    if (roll < 170) {
      return {Kind::kRead, "get_user_by_login", {logins_.Pick(rng)}};
    }
    if (roll < 290) {
      return {Kind::kRead, "get_pobox", {logins_.Pick(rng)}};
    }
    if (roll < 410) {
      return {Kind::kRead, "get_machine", {machines_.Pick(rng)}};
    }
    if (roll < 520) {
      return {Kind::kRead, "get_filesys_by_label", {logins_.Pick(rng)}};
    }
    if (roll < 620) {
      return {Kind::kRead, "get_list_info", {lists_.Pick(rng)}};
    }
    if (roll < 720) {
      return {Kind::kAccess, "get_user_by_login", {logins_.Pick(rng)}};
    }
    if (roll < 870) {
      return {Kind::kRead, "get_lists_of_member", {"RUSER", logins_.Pick(rng)}};
    }
    if (roll < 995) {
      return {Kind::kRead, "get_members_of_list", {lists_.Pick(rng)}};
    }
    if (roll < 999) {
      return {Kind::kRead, "get_machine", {"*"}};
    }
    return {Kind::kRead, "get_all_active_logins", {}};
  }

 private:
  SkewedKeys logins_;
  SkewedKeys machines_;
  SkewedKeys lists_;
};

// The start-of-term mix, with the per-client state that keeps every op
// valid: registrar-tape add_user then register_user of the same uid, member
// adds later deleted, per-machine increasing quota report sequence numbers,
// and reads of the user written last.  The shares are assumptions (README.md,
// "Assumed traffic").
class TermMix {
 public:
  TermMix(const SiteKeys& keys, int thread, int threads, uint64_t seed)
      : keys_(keys), thread_(thread) {
    for (size_t i = 0; i < keys.quotas.size(); ++i) {
      const std::string& machine = std::get<0>(keys.quotas[i]);
      if (std::hash<std::string>{}(machine) % static_cast<size_t>(threads) ==
          static_cast<size_t>(thread)) {
        quota_rows_.push_back(i);
      }
    }
    Shuffle(&quota_rows_, Mix(seed, 10 + static_cast<uint64_t>(thread)));
    if (quota_rows_.empty()) {
      quota_rows_.push_back(static_cast<size_t>(thread) % keys.quotas.size());
    }
  }

  // `registrations` false leaves add_user/register_user out of the draw.
  Op Next(SplitMix64& rng, bool registrations) {
    uint64_t roll = rng.Below(1000);
    if (!registrations && roll < 200) {
      roll = 200 + rng.Below(800);
    }
    if (roll < 100 || (roll < 200 && pending_uids_.empty())) {
      const int64_t uid = 1000000 + 10000000 * static_cast<int64_t>(thread_) + next_++;
      return {Kind::kAddUser, "add_user",
              {std::string(moira::kUniqueLogin), std::to_string(uid), "/bin/csh", "Student",
               "Term", "Q", "0", "tape" + std::to_string(uid), "1992"}};
    }
    if (roll < 200) {
      const int64_t uid = pending_uids_.front();
      return {Kind::kRegister, "register_user",
              {std::to_string(uid),
               "r" + std::to_string(thread_) + "x" + std::to_string(uid % 10000000), "1"}};
    }
    if (roll < 350) {
      const std::string& login = keys_.logins[rng.Below(keys_.logins.size())];
      return {Kind::kSetPobox, "set_pobox", {login, "SMTP", login + "@mit.edu"}};
    }
    if (roll < 500 || (roll < 600 && memberships_.empty())) {
      const std::string& list = keys_.maillists[rng.Below(keys_.maillists.size())];
      if (!registered_.empty() && rng.Chance(1, 2)) {
        const std::string& login = registered_[rng.Below(registered_.size())];
        if (!member_set_.contains({list, login})) {
          return {Kind::kAddMember, "add_member_to_list", {list, "USER", login}};
        }
      }
      return {Kind::kAddMember, "add_member_to_list",
              {list, "STRING",
               "s" + std::to_string(thread_) + "x" + std::to_string(next_++) + "@example.org"}};
    }
    if (roll < 600) {
      const auto& [list, type, member] = memberships_.front();
      return {Kind::kDelMember, "delete_member_from_list", {list, type, member}};
    }
    if (roll < 750) {
      const auto& [machine, stem, uid] = keys_.quotas[quota_rows_[rng.Below(quota_rows_.size())]];
      return {Kind::kQuota, "report_quota_usage",
              {machine, stem, std::to_string(uid), std::to_string(rng.Between(1, 40)),
               std::to_string(++quota_seq_[machine])}};
    }
    const std::string& login =
        last_written_.empty() ? keys_.logins[rng.Below(keys_.logins.size())] : last_written_;
    return {Kind::kRead, "get_user_by_login", {login}};
  }

  // Folds an acknowledged op into the client state.
  void Done(const Op& op, int32_t code) {
    if (code != MR_SUCCESS) {
      return;
    }
    switch (op.kind) {
      case Kind::kAddUser:
        pending_uids_.push_back(std::stoll(op.args[1]));
        break;
      case Kind::kRegister:
        pending_uids_.pop_front();
        registered_.push_back(op.args[1]);
        last_written_ = op.args[1];
        break;
      case Kind::kSetPobox:
        last_written_ = op.args[0];
        break;
      case Kind::kAddMember:
        memberships_.emplace_back(op.args[0], op.args[1], op.args[2]);
        if (op.args[1] == "USER") {
          member_set_.insert({op.args[0], op.args[2]});
        }
        break;
      case Kind::kDelMember:
        member_set_.erase({op.args[0], op.args[2]});
        memberships_.pop_front();
        break;
      default:
        break;
    }
  }

  const std::vector<std::string>& registered() const { return registered_; }

 private:
  const SiteKeys& keys_;
  int thread_;
  int64_t next_ = 0;
  std::deque<int64_t> pending_uids_;
  std::vector<std::string> registered_;
  std::deque<std::tuple<std::string, std::string, std::string>> memberships_;
  std::set<std::pair<std::string, std::string>> member_set_;
  std::vector<size_t> quota_rows_;
  std::map<std::string, int64_t> quota_seq_;
  std::string last_written_;
};

// FNV-1a digest of a reply's tuples; field and tuple lengths are mixed in,
// so field boundaries count.
class ReplyDigest {
 public:
  void Add(const Tuple& tuple) {
    Word(tuple.size());
    for (const std::string& field : tuple) {
      Word(field.size());
      for (const char c : field) {
        Byte(static_cast<uint8_t>(c));
      }
    }
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) { h_ = (h_ ^ b) * 0x100000001b3ull; }
  void Word(uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<uint8_t>(w >> (8 * i)));
    }
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

// One sampled lookup reply kept for the oracle: the op's index in its
// generator's sequence (the op itself is regenerated from the seed), the
// reply code and the digest of the reply tuples.
struct Sampled {
  uint64_t index = 0;
  int32_t code = 0;
  uint64_t digest = 0;
};

using HistogramMap = std::map<std::string, LatencyHistogram, std::less<>>;

LatencyHistogram& Hist(HistogramMap& m, std::string_view name) {
  auto it = m.find(name);
  if (it == m.end()) {
    it = m.emplace(std::string(name), LatencyHistogram()).first;
  }
  return it->second;
}

// One generator thread: its connection, counters and samples.  In the
// untraced run everything a measured op records goes into memory allocated
// by Prepare before the warmup, so the harness does not grow while peak RSS
// is measured.
struct Worker {
  std::unique_ptr<moira::MrClient> client;
  ChannelTap tap;
  SpanBuffer* spans = nullptr;  // traced only
  SplitMix64 rng{0};
  uint64_t next_index = 0;      // op index (request id low bits)
  uint64_t measured_first = 0;  // index of the first measured op
  uint64_t measured_ops = 0;
  uint64_t attempted = 0;       // warmup and measured ops
  uint64_t failed = 0;
  HistogramMap hist;            // "op", "read", "write"
  HistogramMap query_hist;      // per query name
  std::vector<Sampled> sampled;  // lookup oracle: the first n_sampled are used
  size_t n_sampled = 0;
  std::vector<int64_t> probe_ns;  // traced lookup: mr_noop round trips
  std::unique_ptr<TermMix> term;
  // term_start: each measured op of the current storm by its position in
  // the storm, latency and whether it was a read (sized before the warmup).
  std::vector<int64_t> storm_ns;
  std::vector<uint8_t> storm_read;
  uint64_t storm_pos = 0;

  void Prepare(std::span<const char* const> queries, size_t max_sampled) {
    for (const char* cls : {"op", "read", "write"}) {
      Hist(hist, cls);
    }
    for (const char* query : queries) {
      Hist(query_hist, query);
    }
    sampled.assign(max_sampled, Sampled{});
  }

  // Keeps one measured op's latency under its class and its query name.
  void Record(std::string_view query, int64_t ns, const char* cls) {
    Hist(hist, "op").Add(ns);
    if (cls != nullptr) {
      Hist(hist, cls).Add(ns);
    }
    Hist(query_hist, query).Add(ns);
  }
};

// Query names of each mix, so their histograms exist before the warmup.
constexpr const char* kLookupQueries[] = {
    "get_user_by_login", "get_pobox", "get_machine", "get_filesys_by_label", "get_list_info",
    "access", "get_lists_of_member", "get_members_of_list", "get_all_active_logins"};
constexpr const char* kTermQueries[] = {
    "add_user", "register_user", "set_pobox", "add_member_to_list", "delete_member_from_list",
    "report_quota_usage", "get_user_by_login"};

uint64_t RequestId(int thread, uint64_t index) {
  return (static_cast<uint64_t>(thread) + 1) << 40 | (index + 1);
}

// Traced run: publishes the op's request and root-span ids to the
// server-side decorator through the connection's slot, and picks every 8th
// measured op for the codec replay.  Returns the root span id (0 untraced).
uint64_t BeginOp(Worker& w, SlotContext& slot, uint64_t req, uint64_t index, bool record) {
  if (w.spans == nullptr) {
    return 0;
  }
  const uint64_t span_id = w.spans->NextId();
  slot.req.store(req, std::memory_order_release);
  slot.span.store(span_id, std::memory_order_release);
  w.tap.capture = record && w.tap.captured.size() < kCaptureOps && index % 8 == 0;
  return span_id;
}

// Runs every worker's closed loop on its own thread until the deadline.
// The warmup and the measured window run the same step; the step keeps
// samples only in the measured one.
template <typename Step>
void RunPhase(std::vector<Worker>& workers, double seconds, const Step& step) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < workers.size(); ++t) {
    threads.emplace_back([&, t] {
      while (NowNs() < deadline) {
        step(static_cast<int>(t), workers[t]);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
}

double WarmupSeconds(double seconds) { return std::max(0.5, seconds * 0.1); }

// Access-path counters summed over every table, plus the list-closure
// cache (the public TableStats / ListClosureStats).
struct DbSnapshot {
  uint64_t rows_examined = 0;
  uint64_t index_hits = 0;
  uint64_t full_scans = 0;
  uint64_t closure_hits = 0;
  uint64_t closure_misses = 0;
  static DbSnapshot Take(moira::MoiraContext& mc) {
    DbSnapshot s;
    for (const std::string& name : mc.db().TableNames()) {
      const moira::TableStats& t = mc.db().GetTable(name)->stats();
      s.rows_examined += t.rows_examined;
      s.index_hits += t.index_hits;
      s.full_scans += t.full_scans;
    }
    s.closure_hits = mc.closure_stats().hits;
    s.closure_misses = mc.closure_stats().misses;
    return s;
  }
};

void AddDbDeltas(moira::MoiraContext& mc, const DbSnapshot& before, RunOutput* out) {
  const DbSnapshot after = DbSnapshot::Take(mc);
  auto& c = out->counters;
  c["db.rows_examined"] += static_cast<double>(after.rows_examined - before.rows_examined);
  c["db.index_hits"] += static_cast<double>(after.index_hits - before.index_hits);
  c["db.full_scans"] += static_cast<double>(after.full_scans - before.full_scans);
  c["core.closure_hits"] += static_cast<double>(after.closure_hits - before.closure_hits);
  c["core.closure_misses"] += static_cast<double>(after.closure_misses - before.closure_misses);
}

void AddServerDeltas(const moira::MoiraServer& server, const moira::MoiraServer::Stats& before,
                     RunOutput* out) {
  const moira::MoiraServer::Stats& s = server.stats();
  auto& c = out->counters;
  c["server.queries"] += static_cast<double>(s.queries - before.queries);
  c["server.access_checks"] += static_cast<double>(s.access_checks - before.access_checks);
  c["server.access_cache_hits"] +=
      static_cast<double>(s.access_cache_hits - before.access_cache_hits);
  c["server.parallel_read_queries"] +=
      static_cast<double>(s.parallel_read_queries - before.parallel_read_queries);
}

void AddProcDeltas(const ProcSnapshot& before, const ProcSnapshot& after, RunOutput* out) {
  auto& c = out->counters;
  c["proc.user_us"] += static_cast<double>(after.user_us - before.user_us);
  c["proc.sys_us"] += static_cast<double>(after.sys_us - before.sys_us);
  c["proc.vcsw"] += static_cast<double>(after.vcsw - before.vcsw);
}

// Merges the workers' measured samples and channel counters into `out`.
void CollectWorkers(std::vector<Worker>& workers, RunOutput* out) {
  auto& c = out->counters;
  for (Worker& w : workers) {
    out->ops += w.measured_ops;
    out->attempted += w.attempted;
    out->failed += w.failed;
    for (const auto& [name, h] : w.hist) {
      out->histograms[name].Merge(h);
    }
    for (const auto& [name, h] : w.query_hist) {
      out->histograms["query." + name].Merge(h);
    }
    std::vector<int64_t>& probes = out->samples["net.probe"];
    probes.insert(probes.end(), w.probe_ns.begin(), w.probe_ns.end());
    c["protocol.request_bytes"] += static_cast<double>(w.tap.request_bytes);
    c["protocol.requests"] += static_cast<double>(w.tap.requests);
    c["protocol.reply_bytes"] += static_cast<double>(w.tap.reply_bytes);
    c["protocol.reply_frames"] += static_cast<double>(w.tap.reply_frames);
  }
}

// Times the public wire codec on the captured frames: per operation, decode
// and re-encode the request, and decode and re-encode every reply frame.
void TimeCodec(const std::vector<Worker>& workers, RunOutput* out) {
  std::vector<const ChannelTap::Captured*> ops;
  for (const Worker& w : workers) {
    for (const ChannelTap::Captured& c : w.tap.captured) {
      ops.push_back(&c);
    }
  }
  if (ops.empty()) {
    out->counters["protocol.codec_ns_per_op"] = 0;
    return;
  }
  constexpr int kReps = 5;
  size_t sink = 0;
  const int64_t start = NowNs();
  for (int rep = 0; rep < kReps; ++rep) {
    for (const ChannelTap::Captured* c : ops) {
      std::optional<moira::MrRequest> req =
          moira::DecodeRequest(std::string_view(c->request_frame).substr(4));
      if (req.has_value()) {
        sink += moira::EncodeRequest(*req).size();
      }
      for (const std::string& payload : c->reply_payloads) {
        std::optional<moira::MrReply> reply = moira::DecodeReply(payload);
        if (reply.has_value()) {
          sink += moira::EncodeReply(*reply).size();
        }
      }
    }
  }
  const int64_t elapsed = NowNs() - start;
  out->counters["protocol.codec_ns_per_op"] =
      static_cast<double>(elapsed) / static_cast<double>(kReps * ops.size());
  // Reported so the timed encode/decode work cannot be optimized away.
  out->counters["protocol.codec_bytes_touched"] = static_cast<double>(sink);
}

// Replays journal lines into a bench-owned journal attached to a temp
// directory, timing the public Journal::Append.
void ReplayJournal(const std::vector<moira::JournalEntry>& entries, const std::string& dir,
                   RunOutput* out) {
  moira::Journal journal;
  journal.AttachDirectory(dir);
  const size_t n = std::min(entries.size(), kJournalReplay);
  std::vector<int64_t>& samples = out->samples["journal.append"];
  const ProcSnapshot before = ProcSnapshot::Take();
  for (size_t i = 0; i < n; ++i) {
    moira::JournalEntry entry = entries[i];
    entry.seq = 0;
    const int64_t start = NowNs();
    journal.Append(std::move(entry));
    samples.push_back(NowNs() - start);
  }
  const ProcSnapshot after = ProcSnapshot::Take();
  out->counters["journal.replay_entries"] = static_cast<double>(n);
  out->counters["journal.replay_syscw"] = static_cast<double>(after.syscw - before.syscw);
}

std::string Join(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / name).string();
}

// Connects `n` authenticated client workers to the deployment's TCP port;
// traced runs tap each channel and give each worker a span buffer.
void ConnectWorkers(std::vector<Worker>* workers, int n, uint16_t port,
                    moira::KerberosRealm* realm, bool trace, Tracer* tracer) {
  workers->resize(static_cast<size_t>(n));
  for (Worker& w : *workers) {
    w.client = ConnectClient(port, realm, trace ? &w.tap : nullptr);
    if (trace) {
      w.spans = tracer->NewBuffer();
    }
  }
}

bool AllConnected(const std::vector<Worker>& workers) {
  for (const Worker& w : workers) {
    if (w.client == nullptr) {
      return false;
    }
  }
  return true;
}

// Writes the traced run's spans next to the raw output.
bool WriteSpans(const Tracer& tracer, const RunConfig& cfg, RunOutput* out,
                std::string* error) {
  out->spans_path = Join(cfg.work_dir, "spans.tsv");
  if (!tracer.WriteTsv(out->spans_path)) {
    *error = "cannot write " + out->spans_path;
    return false;
  }
  return true;
}

// Times the construction of a deployment.
template <typename Make>
auto TimedSetup(RunOutput* out, const Make& make) {
  const int64_t start = NowNs();
  auto made = make();
  out->setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  return made;
}

// --- lookup ----------------------------------------------------------------

struct LookupRun {
  std::unique_ptr<LookupDeployment> d;
  std::vector<Worker> workers;
};

bool RunLookup(const RunConfig& cfg, RunOutput* out, std::string* error) {
  Tracer tracer;
  std::vector<SlotContext> slots(kLookupClients);
  out->threads = kLookupClients;
  out->connections = kLookupClients;
  out->server_threads = 2;
  auto run = TimedSetup(out, [&] {
    auto r = std::make_unique<LookupRun>();
    r->d = std::make_unique<LookupDeployment>(cfg.trace, &tracer, &slots);
    ConnectWorkers(&r->workers, kLookupClients, r->d->tcp->port(), r->d->site.realm.get(),
                   cfg.trace, &tracer);
    return r;
  });
  if (!AllConnected(run->workers)) {
    *error = "lookup: client connect/auth failed";
    return false;
  }
  if (cfg.setup_only) {
    return true;
  }
  LookupDeployment& d = *run->d;
  const SiteKeys keys = CollectKeys(*d.site.mc, *d.site.builder);
  out->counters["site.logins"] = static_cast<double>(keys.logins.size());
  out->counters["site.machines"] = static_cast<double>(keys.machines.size());
  out->counters["site.lists"] = static_cast<double>(keys.lists.size());
  const LookupMix mix(keys);
  for (int t = 0; t < kLookupClients; ++t) {
    Worker& w = run->workers[static_cast<size_t>(t)];
    w.rng = SplitMix64(Mix(cfg.seed, 100 + t));
    w.Prepare(kLookupQueries, kMaxSampled);
  }

  bool record = false;
  auto step = [&](int t, Worker& w) {
    const uint64_t index = w.next_index++;
    const Op op = mix.Next(w.rng);
    const uint64_t req = RequestId(t, index);
    const uint64_t span_id = BeginOp(w, slots[static_cast<size_t>(t)], req, index, record);
    const bool sample =
        record && w.n_sampled < w.sampled.size() && Mix(cfg.seed ^ req, 7) % 64 == 0;
    ReplyDigest digest;
    const int64_t start = NowNs();
    int32_t code;
    if (op.kind == Kind::kAccess) {
      code = w.client->Access(op.query, op.args);
    } else {
      code = w.client->Query(op.query, op.args, [&](Tuple tuple) {
        if (sample) {
          digest.Add(tuple);
        }
      });
    }
    const int64_t end = NowNs();
    ++w.attempted;
    w.failed += code != MR_SUCCESS;
    if (!record) {
      return;
    }
    if (w.measured_ops == 0) {
      w.measured_first = index;
    }
    ++w.measured_ops;
    w.Record(op.kind == Kind::kAccess ? "access" : op.query, end - start,
             op.kind == Kind::kRead ? "read" : nullptr);
    if (sample) {
      w.sampled[w.n_sampled++] = Sampled{index, code, digest.value()};
    }
    if (w.spans != nullptr) {
      w.spans->Add(span_id, "net.rpc", 0, req, start, end);
      // Transport probe: an mr_noop round trip under the same load, timed on
      // its own (its server span carries a probe request id, which the
      // attribution leaves out).
      if (index % kProbeEvery == kProbeEvery - 1 && w.probe_ns.size() < kMaxSampled) {
        BeginOp(w, slots[static_cast<size_t>(t)], req | kProbeRequestBit, index, false);
        const int64_t probe_start = NowNs();
        w.client->Noop();
        w.probe_ns.push_back(NowNs() - probe_start);
      }
    }
  };

  RunPhase(run->workers, WarmupSeconds(cfg.seconds), step);
  // Quiesce the transport thread so the server's counters are read on a
  // thread that happens-after every update.
  d.poll->Stop();
  const moira::MoiraServer::Stats before = d.server->stats();
  const DbSnapshot db_before = DbSnapshot::Take(*d.site.mc);
  const uint64_t batches_before = d.traced ? d.traced->batches() : 0;
  const uint64_t items_before = d.traced ? d.traced->items() : 0;
  const size_t handler_before = d.traced ? d.traced->handler_ns().size() : 0;
  d.poll->Start();
  record = true;
  EnableSyscallCounting(cfg.trace);
  const uint64_t syscalls_before = SocketSyscalls();
  const ProcSnapshot proc_before = ProcSnapshot::Take();
  const int64_t start = NowNs();
  RunPhase(run->workers, cfg.seconds, step);
  out->measured_s = static_cast<double>(NowNs() - start) / 1e9;
  const ProcSnapshot proc_after = ProcSnapshot::Take();
  out->peak_rss_kb = proc_after.max_rss_kb;
  EnableSyscallCounting(false);
  out->counters["net.socket_syscalls"] = static_cast<double>(SocketSyscalls() - syscalls_before);
  d.poll->Stop();

  AddProcDeltas(proc_before, proc_after, out);
  AddServerDeltas(*d.server, before, out);
  AddDbDeltas(*d.site.mc, db_before, out);
  CollectWorkers(run->workers, out);
  if (d.traced) {
    out->counters["net.batches"] = static_cast<double>(d.traced->batches() - batches_before);
    out->counters["net.batch_items"] = static_cast<double>(d.traced->items() - items_before);
    out->samples["server.handler"].assign(d.traced->handler_ns().begin() +
                                              static_cast<std::ptrdiff_t>(handler_before),
                                          d.traced->handler_ns().end());
  }

  // Oracle: every sampled reply must equal a DirectClient execution of the
  // same query (the database is unchanged by a read-only run).  Each
  // generator's op sequence is regenerated from its seed.
  moira::DirectClient direct(d.site.mc.get(), kClientName);
  uint64_t checked = 0;
  uint64_t mismatched = 0;
  for (int t = 0; t < kLookupClients; ++t) {
    const Worker& w = run->workers[static_cast<size_t>(t)];
    SplitMix64 rng(Mix(cfg.seed, 100 + t));
    uint64_t generated = 0;  // ops of the sequence drawn so far
    Op op;
    for (size_t i = 0; i < w.n_sampled; ++i) {
      const Sampled& s = w.sampled[i];
      while (generated <= s.index) {
        op = mix.Next(rng);
        ++generated;
      }
      ++checked;
      ReplyDigest digest;
      const int32_t code = op.kind == Kind::kAccess
                               ? direct.Access(op.query, op.args)
                               : direct.Query(op.query, op.args,
                                              [&](Tuple tuple) { digest.Add(tuple); });
      if (code != s.code || digest.value() != s.digest) {
        ++mismatched;
      }
    }
  }
  out->oracles["lookup_matches_direct"] = {checked, mismatched};
  out->failed += mismatched;

  if (cfg.trace) {
    TimeCodec(run->workers, out);
    // Layer peeling: thread 0's measured ops replayed through the loopback
    // RPC path (no TCP) and through DirectClient (no protocol, no server).
    const Worker& w0 = run->workers[0];
    SplitMix64 rng(Mix(cfg.seed, 100));
    auto loop = std::make_unique<moira::MrClient>(
        [&d] { return std::make_unique<moira::LoopbackChannel>(d.server.get()); });
    loop->SetKerberosIdentity(d.site.realm.get(), kClientPrincipal, kClientPassword);
    loop->Connect();
    loop->Auth(kClientName);
    const uint64_t last = w0.measured_first + std::min<uint64_t>(w0.measured_ops, kPeelOps);
    for (uint64_t index = 0; index < last; ++index) {
      const Op op = mix.Next(rng);
      if (index < w0.measured_first) {
        continue;
      }
      auto timed = [&](moira::MoiraClientApi& api) {
        const int64_t t0 = NowNs();
        if (op.kind == Kind::kAccess) {
          api.Access(op.query, op.args);
        } else {
          api.Query(op.query, op.args, [](Tuple) {});
        }
        return NowNs() - t0;
      };
      const int64_t loop_ns = timed(*loop);
      const int64_t core_ns = timed(direct);
      out->samples["server.loopback"].push_back(loop_ns);
      out->samples["core.direct"].push_back(core_ns);
      if (op.kind == Kind::kRead) {
        out->samples["core.direct_read"].push_back(core_ns);
      }
      out->peeled_core.emplace_back(RequestId(0, index), core_ns);
    }
    loop.reset();
    if (!WriteSpans(tracer, cfg, out, error)) {
      return false;
    }
  }
  for (Worker& w : run->workers) {
    w.client.reset();
  }
  return true;
}

// --- term_start ------------------------------------------------------------

// One start-of-term storm: the registrar's tape of about 1,000 students a
// term (PAPER.md) arriving with the rest of the term mix.  add_user is 10 %
// of the mix and each is followed by a register_user, so 10,000 operations,
// split evenly over the clients, register about 1,000 users.  Every storm
// starts from a freshly built cluster, so the state each operation meets
// depends only on its position in the storm, not on how many operations the
// run completes: a faster program runs more storms, not a longer one.
constexpr uint64_t kStormOpsPerClient = 5001;
// term_start reports its latency medians as the median over storm slices of
// each slice's median: slice k holds positions [k, k+1) * ops / kStormSlices
// of every client's storm.  A burst of host contention then moves the few
// slices it hits rather than every sample of the run.
constexpr uint64_t kStormSlices = 10;

// Nearest-rank median (stats.percentile(values, 50)); reorders `v`.
int64_t SliceMedian(std::vector<int64_t>& v) {
  const size_t rank = (v.size() + 1) / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

// Appends the storm's per-slice medians of every op and of reads.
void AddSliceMedians(const std::vector<Worker>& workers, RunOutput* out) {
  std::vector<int64_t> ops;
  std::vector<int64_t> reads;
  for (uint64_t k = 0; k < kStormSlices; ++k) {
    ops.clear();
    reads.clear();
    for (const Worker& w : workers) {
      for (uint64_t i = w.storm_pos * k / kStormSlices; i < w.storm_pos * (k + 1) / kStormSlices;
           ++i) {
        ops.push_back(w.storm_ns[i]);
        if (w.storm_read[i] != 0) {
          reads.push_back(w.storm_ns[i]);
        }
      }
    }
    if (!ops.empty()) {
      out->samples["slice.op_p50"].push_back(SliceMedian(ops));
    }
    if (!reads.empty()) {
      out->samples["slice.read_p50"].push_back(SliceMedian(reads));
    }
  }
}

// Runs `ops` steps of every worker's closed loop, each on its own thread.
template <typename Step>
void RunSteps(std::vector<Worker>& workers, uint64_t ops, const Step& step) {
  std::vector<std::thread> threads;
  for (size_t t = 0; t < workers.size(); ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < ops; ++i) {
        step(static_cast<int>(t), workers[t]);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
}

// Builds a cluster in the run's data directory and connects the workers.
std::unique_ptr<ClusterDeployment> StartCluster(const RunConfig& cfg, Tracer* tracer,
                                                std::vector<SlotContext>* slots,
                                                std::vector<Worker>* workers) {
  const std::string dir = Join(cfg.work_dir, "term-journal");
  std::filesystem::remove_all(dir);
  auto d = std::make_unique<ClusterDeployment>(dir, cfg.trace, tracer, slots);
  ConnectWorkers(workers, kTermStartClients, d->tcp->port(), d->realm.get(), cfg.trace, tracer);
  return d;
}

void StopCluster(std::unique_ptr<ClusterDeployment>* d, std::vector<Worker>* workers) {
  for (Worker& w : *workers) {
    w.client.reset();
  }
  d->reset();
}

bool RunTermStart(const RunConfig& cfg, RunOutput* out, std::string* error) {
  Tracer tracer;
  std::vector<SlotContext> slots(kTermStartClients);
  std::vector<Worker> workers;
  out->threads = kTermStartClients;
  out->connections = kTermStartClients;
  out->server_threads = 1;
  // Only the first build is timed: later builds reuse the freed heap, and
  // their number follows the run's throughput.
  auto d = TimedSetup(out, [&] { return StartCluster(cfg, &tracer, &slots, &workers); });
  if (!AllConnected(workers)) {
    *error = "term_start: client connect/auth failed";
    return false;
  }
  if (cfg.setup_only) {
    return true;
  }
  const SiteKeys keys = CollectKeys(d->primary().context(), *d->builder);
  for (Worker& w : workers) {
    w.Prepare(kTermQueries, 0);
    w.storm_ns.assign(kStormOpsPerClient, 0);
    w.storm_read.assign(kStormOpsPerClient, 0);
  }
  // Each storm (and the warmup) gets its own mix state and seed.
  auto new_mixes = [&](uint64_t storm) {
    for (int t = 0; t < kTermStartClients; ++t) {
      Worker& w = workers[static_cast<size_t>(t)];
      w.rng = SplitMix64(Mix(Mix(cfg.seed, storm), 200 + t));
      w.term = std::make_unique<TermMix>(keys, t, kTermStartClients, Mix(cfg.seed, storm));
      w.storm_pos = 0;
    }
  };

  bool record = false;
  auto step = [&](int t, Worker& w) {
    const uint64_t index = w.next_index++;
    const Op op = w.term->Next(w.rng, true);
    const uint64_t req = RequestId(t, index);
    const uint64_t span_id = BeginOp(w, slots[static_cast<size_t>(t)], req, index, record);
    const int64_t start = NowNs();
    const int32_t code = w.client->Query(op.query, op.args, [](Tuple) {});
    const int64_t end = NowNs();
    w.term->Done(op, code);
    ++w.attempted;
    w.failed += code != MR_SUCCESS;
    if (!record) {
      return;
    }
    ++w.measured_ops;
    w.Record(op.query, end - start, op.is_write() ? "write" : "read");
    w.storm_ns[w.storm_pos] = end - start;
    w.storm_read[w.storm_pos] = op.is_write() ? 0 : 1;
    ++w.storm_pos;
    if (w.spans != nullptr) {
      w.spans->Add(span_id, "net.rpc", 0, req, start, end);
    }
  };

  // Warm the process (code, allocator, CPU caches) on the first cluster,
  // then start every measured storm from a fresh one.
  new_mixes(0);
  RunPhase(workers, WarmupSeconds(cfg.seconds), step);
  record = true;
  auto& c = out->counters;
  uint64_t registrations = 0;
  uint64_t missing = 0;
  uint64_t diverged = 0;
  uint64_t dumps = 0;
  std::vector<moira::JournalEntry> last_entries;
  for (uint64_t storm = 1; out->measured_s < cfg.seconds; ++storm) {
    StopCluster(&d, &workers);
    d = StartCluster(cfg, &tracer, &slots, &workers);
    if (!AllConnected(workers)) {
      *error = "term_start: client connect/auth failed";
      return false;
    }
    new_mixes(storm);
    moira::ReplicaServer& primary = d->primary();
    moira::MoiraServer& server = primary.server();
    uint64_t lag_max = 0;
    if (d->traced) {
      d->traced->set_after_batch([&] {
        const uint64_t last = server.journal().last_seq();
        for (size_t i = 1; i < d->nodes.size(); ++i) {
          const uint64_t applied = d->nodes[i]->applied_seq();
          if (last > applied) {
            lag_max = std::max(lag_max, last - applied);
          }
        }
      });
    }
    d->poll->Stop();
    const moira::MoiraServer::Stats before = server.stats();
    const DbSnapshot db_before = DbSnapshot::Take(primary.context());
    const moira::MoiraServer::QuorumStats quorum_before = server.quorum_stats();
    const uint64_t seq_before = server.journal().last_seq();
    const int64_t dir_bytes_before = DirectoryBytes(d->data_dir);
    const uint64_t batches_before = d->traced ? d->traced->batches() : 0;
    const uint64_t items_before = d->traced ? d->traced->items() : 0;
    const size_t handler_before = d->traced ? d->traced->handler_ns().size() : 0;
    d->poll->Start();
    EnableSyscallCounting(cfg.trace);
    const uint64_t syscalls_before = SocketSyscalls();
    const ProcSnapshot proc_before = ProcSnapshot::Take();
    const int64_t start = NowNs();
    RunSteps(workers, kStormOpsPerClient, step);
    out->measured_s += static_cast<double>(NowNs() - start) / 1e9;
    const ProcSnapshot proc_after = ProcSnapshot::Take();
    out->peak_rss_kb = proc_after.max_rss_kb;
    EnableSyscallCounting(false);
    c["net.socket_syscalls"] += static_cast<double>(SocketSyscalls() - syscalls_before);
    d->poll->Stop();

    AddSliceMedians(workers, out);
    AddProcDeltas(proc_before, proc_after, out);
    AddServerDeltas(server, before, out);
    AddDbDeltas(primary.context(), db_before, out);
    const moira::MoiraServer::QuorumStats& q = server.quorum_stats();
    c["journal.writes"] += static_cast<double>(server.journal().last_seq() - seq_before);
    c["journal.bytes"] += static_cast<double>(DirectoryBytes(d->data_dir) - dir_bytes_before);
    c["repl.quorum_writes"] += static_cast<double>(q.quorum_writes - quorum_before.quorum_writes);
    c["repl.push_rounds"] += static_cast<double>(q.push_rounds - quorum_before.push_rounds);
    c["repl.push_failures"] += static_cast<double>(q.push_failures - quorum_before.push_failures);
    c["repl.quorum_timeouts"] +=
        static_cast<double>(q.quorum_timeouts - quorum_before.quorum_timeouts);
    c["term.storms"] += 1;
    if (d->traced) {
      c["net.batches"] += static_cast<double>(d->traced->batches() - batches_before);
      c["net.batch_items"] += static_cast<double>(d->traced->items() - items_before);
      c["repl.lag_max_entries"] = std::max(c["repl.lag_max_entries"], static_cast<double>(lag_max));
      std::vector<int64_t>& handler = out->samples["server.handler"];
      handler.insert(handler.end(),
                     d->traced->handler_ns().begin() + static_cast<std::ptrdiff_t>(handler_before),
                     d->traced->handler_ns().end());
      for (const auto& tap : d->taps) {
        std::vector<int64_t>& pushes = out->samples["repl.push"];
        pushes.insert(pushes.end(), tap->push_ns().begin(), tap->push_ns().end());
      }
      d->traced->set_after_batch(nullptr);
    }

    // Oracles: after a final catch-up, the primary and both replicas dump
    // byte-identically, and every acknowledged registration is on all three.
    for (size_t i = 1; i < d->nodes.size(); ++i) {
      d->nodes[i]->CatchUp();
    }
    const std::string golden = moira::BackupManager::DumpToString(primary.db());
    for (size_t i = 1; i < d->nodes.size(); ++i) {
      ++dumps;
      if (moira::BackupManager::DumpToString(d->nodes[i]->db()) != golden) {
        ++diverged;
      }
    }
    for (const Worker& w : workers) {
      for (const std::string& login : w.term->registered()) {
        ++registrations;
        for (auto& node : d->nodes) {
          if (node->context().UserByLogin(login).code != MR_SUCCESS) {
            ++missing;
            break;
          }
        }
      }
    }
    if (cfg.trace) {
      last_entries = server.journal().entries();
    }
  }
  CollectWorkers(workers, out);
  out->oracles["replicas_byte_identical"] = {dumps, diverged};
  out->oracles["acked_registrations_present"] = {registrations, missing};
  out->failed += diverged + missing;

  if (cfg.trace) {
    TimeCodec(workers, out);
    ReplayJournal(last_entries, Join(cfg.work_dir, "journal-replay"), out);
    if (!WriteSpans(tracer, cfg, out, error)) {
      return false;
    }
  }
  StopCluster(&d, &workers);
  return true;
}

// --- propagate -------------------------------------------------------------

bool RunPropagate(const RunConfig& cfg, RunOutput* out, std::string* error) {
  Tracer tracer;
  SpanBuffer* spans = cfg.trace ? tracer.NewBuffer() : nullptr;
  out->threads = 1;
  out->connections = 0;
  out->server_threads = 0;
  auto d = TimedSetup(out, [&] {
    const std::string dir = Join(cfg.work_dir, "dcm-journal");
    std::filesystem::remove_all(dir);
    return std::make_unique<DcmDeployment>(dir);
  });
  if (!d->first_pass.ran || d->first_pass.hosts_updated == 0) {
    *error = "propagate: first DCM pass did not update the fleet";
    return false;
  }
  if (cfg.setup_only) {
    return true;
  }
  moira::MoiraContext& mc = *d->site.mc;
  const SiteKeys keys = CollectKeys(mc, *d->site.builder);
  TermMix mix(keys, 0, 1, cfg.seed);
  SplitMix64 rng(Mix(cfg.seed, 300));
  const moira::QueryRegistry& registry = moira::QueryRegistry::Instance();
  uint64_t round_index = 0;
  uint64_t queries = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto& c = out->counters;
  // Every histogram a measured round records into, created before the warmup.
  HistogramMap hist;
  for (const char* name : {"op", "read", "write", "pass", "query.get_user_by_login",
                           "query.set_pobox", "query.report_quota_usage",
                           "query.add_member_to_list", "query.delete_member_from_list",
                           "query.update_zephyr_class", "query.add_machine",
                           "query.add_machine_to_cluster", "query.delete_machine_from_cluster"}) {
    Hist(hist, name);
  }

  // One churn op through the journalled mutation path (reads through the
  // registry), timed.
  auto execute = [&](const Op& op, bool record, uint64_t req, uint64_t parent) {
    const int64_t start = NowNs();
    int32_t code;
    if (op.is_write()) {
      code = moira::ExecuteJournaled(mc, &d->journal, kClientPrincipal, kClientName, op.query,
                                     op.args);
    } else {
      code = registry.Execute(mc, kClientPrincipal, kClientName, op.query, op.args,
                              [](Tuple) {});
    }
    const int64_t end = NowNs();
    mix.Done(op, code);
    ++attempted;
    failed += code != MR_SUCCESS;
    if (record) {
      ++queries;
      Hist(hist, op.is_write() ? "write" : "read").Add(end - start);
      Hist(hist, "query." + op.query).Add(end - start);
      if (spans != nullptr) {
        spans->Add(spans->NextId(), "core.query", parent, req, start, end);
      }
    }
  };

  // One round: six ops of the term-start mix without registrations (each
  // one forces every service to regenerate in full, which the set-up pass
  // already measures) and without list edits, the first a pobox change, then
  // ten reads of users the round wrote.  On a fixed cadence a round also edits a mailing list or a
  // Zephyr class (1 round in 4: Zephyr ACLs regenerated and diffed) or places
  // a new workstation in a cluster (1 in 4: cluster.db rebuilt and diffed), so
  // the mix of pass kinds is the same in every run.  Then the clock passes
  // every service interval and one DCM pass runs in journal-delta mode.
  auto draw = [&](auto keep) {
    Op op = mix.Next(rng, false);
    while (!keep(op.kind)) {
      op = mix.Next(rng, false);
    }
    return op;
  };
  auto round = [&](bool record) {
    const uint64_t index = round_index++;
    const uint64_t req = RequestId(0, index);
    const uint64_t pass_span = spans != nullptr ? spans->NextId() : 0;
    const int64_t round_start = NowNs();
    std::vector<std::string> written;
    for (int i = 0; i < 6; ++i) {
      // The first op is always a pobox change, so every pass has user blocks
      // to patch and none is skipped as irrelevant.
      const Op op = draw([i](Kind k) {
        return i == 0 ? k == Kind::kSetPobox : k != Kind::kAddMember && k != Kind::kDelMember;
      });
      execute(op, record, req, pass_span);
      if (op.kind == Kind::kSetPobox) {
        written.push_back(op.args[0]);
      }
    }
    for (int i = 0; i < 10; ++i) {
      const std::string& login = written.empty() ? keys.logins[rng.Below(keys.logins.size())]
                                                 : written[rng.Below(written.size())];
      execute({Kind::kRead, "get_user_by_login", {login}}, record, req, pass_span);
    }
    // The cadence edits undo themselves (a member added is deleted next
    // time; a class's ACL alternates LIST/NONE; a placed workstation leaves
    // its cluster next time), so the state they touch stays the same size.
    if (index % 8 == 3) {
      const uint64_t k = index / 8;
      const std::string member = "pbm" + std::to_string(k / 2) + "@example.org";
      const std::string& list = keys.maillists[(k / 2) % keys.maillists.size()];
      execute({k % 2 == 0 ? Kind::kAddMember : Kind::kDelMember,
               k % 2 == 0 ? "add_member_to_list" : "delete_member_from_list",
               {list, "STRING", member}},
              record, req, pass_span);
    }
    if (index % 8 == 7) {
      const uint64_t k = index / 8;
      const size_t n = keys.zephyr_classes.size();
      const std::string& klass = keys.zephyr_classes[k % n];
      const bool list_ace = (k / n) % 2 == 0;
      execute({Kind::kZephyr, "update_zephyr_class",
               {klass, klass, list_ace ? "LIST" : "NONE", list_ace ? keys.maillists[0] : "NONE",
                "NONE", "NONE", "NONE", "NONE", "NONE", "NONE"}},
              record, req, pass_span);
    }
    if (index % 4 == 1) {
      const uint64_t k = index / 4;
      const std::string name = "pbws" + std::to_string(k / 2) + ".mit.edu";
      const std::string& cluster = keys.clusters[(k / 2) % keys.clusters.size()];
      if (k % 2 == 0) {
        execute({Kind::kAddMachine, "add_machine", {name, "VAX"}}, record, req, pass_span);
        execute({Kind::kMachineToCluster, "add_machine_to_cluster", {name, cluster}}, record,
                req, pass_span);
      } else {
        execute({Kind::kMachineToCluster, "delete_machine_from_cluster", {name, cluster}},
                record, req, pass_span);
      }
    }
    d->site.clock.Advance(25 * moira::kSecondsPerHour);
    const int64_t pass_start = NowNs();
    const moira::DcmRunSummary s = d->dcm->RunOnce();
    const int64_t pass_end = NowNs();
    const bool pass_ok = s.ran && s.generation_hard_errors == 0 && s.host_soft_failures == 0 &&
                         s.host_hard_failures == 0;
    ++attempted;
    failed += !pass_ok;
    if (!record) {
      return;
    }
    ++out->ops;
    Hist(hist, "op").Add(pass_end - pass_start);
    Hist(hist, "pass").Add(pass_end - pass_start);
    c["dcm.passes"] += 1;
    c["dcm.journal_entries"] += static_cast<double>(s.journal_entries_examined);
    c["dcm.services_patched"] += s.services_patched;
    c["dcm.full_regens"] += s.full_regens;
    c["dcm.generation_rows"] +=
        static_cast<double>(s.generation_rows_primary + s.generation_rows_replica);
    c["update.bytes"] += static_cast<double>(s.bytes_propagated);
    c["update.propagations"] += s.propagations;
    c["update.patch_ships"] += s.patch_ships;
    c["update.host_retries"] += s.host_retries;
    if (spans != nullptr) {
      spans->Add(spans->NextId(), "dcm.pass", pass_span, req, pass_start, pass_end);
      spans->Add(pass_span, "core.round", 0, req, round_start, pass_end);
    }
  };

  const int64_t warm_deadline = NowNs() + static_cast<int64_t>(WarmupSeconds(cfg.seconds) * 1e9);
  while (NowNs() < warm_deadline) {
    round(false);
  }
  const int64_t seq_before = static_cast<int64_t>(d->journal.last_seq());
  const DbSnapshot db_before = DbSnapshot::Take(mc);
  const int64_t dir_bytes_before = DirectoryBytes(d->journal.directory());
  const ProcSnapshot proc_before = ProcSnapshot::Take();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(cfg.seconds * 1e9);
  while (NowNs() < deadline) {
    round(true);
  }
  out->measured_s = static_cast<double>(NowNs() - start) / 1e9;
  const ProcSnapshot proc_after = ProcSnapshot::Take();
  out->peak_rss_kb = proc_after.max_rss_kb;
  for (auto& [name, h] : hist) {
    out->histograms[name].Merge(h);
  }
  AddProcDeltas(proc_before, proc_after, out);
  AddDbDeltas(mc, db_before, out);
  c["journal.writes"] = static_cast<double>(static_cast<int64_t>(d->journal.last_seq()) -
                                            seq_before);
  c["journal.bytes"] =
      static_cast<double>(DirectoryBytes(d->journal.directory()) - dir_bytes_before);
  c["core.queries"] = static_cast<double>(queries);
  out->attempted = attempted;

  // Oracle: the installed host files equal a fresh full regeneration.
  int mismatches = 0;
  const int compared = VerifyInstalledFiles(*d, &mismatches);
  out->oracles["installed_equals_full_regen"] = {static_cast<uint64_t>(compared),
                                                 static_cast<uint64_t>(mismatches)};
  out->failed = failed + static_cast<uint64_t>(mismatches) + (compared == 0 ? 1 : 0);

  if (cfg.trace) {
    ReplayJournal(d->journal.entries(), Join(cfg.work_dir, "journal-replay"), out);
    if (!WriteSpans(tracer, cfg, out, error)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool RunWorkload(const RunConfig& config, RunOutput* out, std::string* error) {
  if (config.workload == "lookup") {
    return RunLookup(config, out, error);
  }
  if (config.workload == "term_start") {
    return RunTermStart(config, out, error);
  }
  if (config.workload == "propagate") {
    return RunPropagate(config, out, error);
  }
  *error = "unknown workload: " + config.workload;
  return false;
}

}  // namespace perfbench
