// The in-process Moira deployments the benchmark drives, built only through
// the program's public entry points: a paper-scale site (SiteBuilder), a
// TcpServer pumped by a Poll loop, a three-node quorum cluster whose primary
// journals into a data directory, and a DCM attached to that journal against
// the simulated host fleet.
#ifndef MOIRA_PERFBENCH_SITE_H_
#define MOIRA_PERFBENCH_SITE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "perfbench/trace.h"
#include "src/client/client.h"
#include "src/common/clock.h"
#include "src/common/worker_pool.h"
#include "src/core/context.h"
#include "src/dcm/dcm.h"
#include "src/krb/kerberos.h"
#include "src/net/tcp.h"
#include "src/repl/replica.h"
#include "src/server/journal.h"
#include "src/server/server.h"
#include "src/sim/population.h"
#include "src/update/sim_host.h"
#include "src/zephyrd/zephyr_bus.h"

namespace perfbench {

// The identity every load-generator client authenticates as: the site's
// operations manager, a member of dbadmin (every capability), so no query in
// any mix is refused for lack of access.
inline constexpr char kClientPrincipal[] = "opsmgr";
inline constexpr char kClientPassword[] = "pw:opsmgr";
inline constexpr char kClientName[] = "perfbench";
inline constexpr moira::UnixTime kSiteEpoch = 568000000;

// The paper-scale site (10,000 users, 20 NFS servers): the SiteSpec
// defaults, population seed included.  The site is the fixed deployment every
// run starts from; the workload seed varies only the traffic.
moira::SiteSpec PaperSpec();

// Keys the workload generators draw from, read out of the built site.
struct SiteKeys {
  std::vector<std::string> logins;       // active users
  std::vector<std::string> machines;     // every machine name
  std::vector<std::string> lists;        // visible lists with at least one member
  std::vector<std::string> maillists;    // ml-* lists (member edits go here)
  std::vector<std::string> zephyr_classes;
  std::vector<std::string> clusters;
  // (machine, partition stem, uid) of each active user's home quota, the
  // argument triple report_quota_usage accepts.
  std::vector<std::tuple<std::string, std::string, int64_t>> quotas;
};
SiteKeys CollectKeys(moira::MoiraContext& mc, const moira::SiteBuilder& builder);

// One database with its realm and population.
struct Site {
  Site();
  moira::SimulatedClock clock{kSiteEpoch};
  std::unique_ptr<moira::Database> db;
  std::unique_ptr<moira::MoiraContext> mc;
  std::unique_ptr<moira::KerberosRealm> realm;
  std::unique_ptr<moira::SiteBuilder> builder;
};

// Runs TcpServer::Poll on its own thread until Stop().  The timeout only
// bounds how long Stop() waits; poll(2) returns as soon as a socket is ready.
class PollLoop {
 public:
  explicit PollLoop(moira::TcpServer* tcp) : tcp_(tcp) {}
  ~PollLoop() { Stop(); }
  PollLoop(const PollLoop&) = delete;
  PollLoop& operator=(const PollLoop&) = delete;
  void Start();
  void Stop();

 private:
  moira::TcpServer* tcp_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// A TCP client authenticated as kClientPrincipal.  With `tap` set the
// channel is wrapped in a TappedChannel.
std::unique_ptr<moira::MrClient> ConnectClient(uint16_t port, moira::KerberosRealm* realm,
                                               ChannelTap* tap);

// `lookup`: one MoiraServer over the site, batched reads on a one-worker
// read pool, served by TcpServer.
struct LookupDeployment {
  LookupDeployment(bool traced, Tracer* tracer, std::vector<SlotContext>* slots);
  Site site;
  moira::WorkerPool read_pool{1};
  std::unique_ptr<moira::MoiraServer> server;
  std::unique_ptr<TracedHandler> traced;  // null when untraced
  std::unique_ptr<moira::TcpServer> tcp;
  std::unique_ptr<PollLoop> poll;
  moira::MessageHandler* handler() {
    return traced ? static_cast<moira::MessageHandler*>(traced.get()) : server.get();
  }
};

// `term_start`: three ReplicaServers, each holding the same site; node 0 is
// promoted at epoch 1 and quorum-pushes to nodes 1 and 2 (majority 2 of 3)
// over loopback, journals into `data_dir`, and is served by TcpServer.
struct ClusterDeployment {
  ClusterDeployment(const std::string& data_dir, bool traced, Tracer* tracer,
                    std::vector<SlotContext>* slots);
  ~ClusterDeployment();
  moira::SimulatedClock realm_clock{kSiteEpoch};
  std::unique_ptr<moira::KerberosRealm> realm;
  std::vector<std::unique_ptr<moira::ReplicaServer>> nodes;
  std::unique_ptr<moira::SiteBuilder> builder;  // node 0's builder (key source)
  std::vector<std::unique_ptr<ReplicaTap>> taps;  // traced: in front of nodes 1, 2
  std::unique_ptr<TracedHandler> traced;
  std::unique_ptr<moira::TcpServer> tcp;
  std::unique_ptr<PollLoop> poll;
  std::string data_dir;
  moira::ReplicaServer& primary() { return *nodes[0]; }
};

// `propagate`: the site with its simulated fleet and a DCM in journal-delta
// mode over a journal attached to `data_dir`.  The constructor runs the first
// (full) DCM pass.
struct DcmDeployment {
  explicit DcmDeployment(const std::string& data_dir);
  Site site;
  std::unique_ptr<moira::ZephyrBus> zephyr;
  moira::HostDirectory directory;
  std::vector<std::unique_ptr<moira::SimHost>> hosts;
  moira::Journal journal;
  std::unique_ptr<moira::Dcm> dcm;
  moira::DcmRunSummary first_pass;
};

// The incremental-propagation oracle: regenerates every service from scratch
// and compares each up-to-date host's installed files against it.  Returns
// the number of files compared; *mismatches counts the ones that differ.
int VerifyInstalledFiles(DcmDeployment& d, int* mismatches);

}  // namespace perfbench

#endif  // MOIRA_PERFBENCH_SITE_H_
