#include "perfbench/site.h"

#include <set>

#include "src/comerr/moira_errors.h"
#include "src/core/schema.h"
#include "src/db/exec.h"
#include "src/dcm/generators.h"

namespace perfbench {

using moira::MoiraContext;

moira::SiteSpec PaperSpec() { return moira::SiteSpec{}; }

SiteKeys CollectKeys(MoiraContext& mc, const moira::SiteBuilder& builder) {
  SiteKeys keys;
  keys.logins = builder.active_logins();
  mc.machine()->Scan([&](size_t row, const moira::Row&) {
    keys.machines.push_back(MoiraContext::StrCell(mc.machine(), row, "name"));
    return true;
  });
  std::set<int64_t> lists_with_members;
  mc.members()->Scan([&](size_t row, const moira::Row&) {
    lists_with_members.insert(MoiraContext::IntCell(mc.members(), row, "list_id"));
    return true;
  });
  mc.list()->Scan([&](size_t row, const moira::Row&) {
    // Hidden lists are refused to every non-root caller; leave them out so
    // no generated op fails.
    if (lists_with_members.contains(MoiraContext::IntCell(mc.list(), row, "list_id")) &&
        MoiraContext::IntCell(mc.list(), row, "hidden") == 0) {
      const std::string& name = MoiraContext::StrCell(mc.list(), row, "name");
      keys.lists.push_back(name);
      if (name.starts_with("ml-")) {
        keys.maillists.push_back(name);
      }
    }
    return true;
  });
  mc.zephyr()->Scan([&](size_t row, const moira::Row&) {
    keys.zephyr_classes.push_back(MoiraContext::StrCell(mc.zephyr(), row, "class"));
    return true;
  });
  mc.cluster()->Scan([&](size_t row, const moira::Row&) {
    keys.clusters.push_back(MoiraContext::StrCell(mc.cluster(), row, "name"));
    return true;
  });
  for (const std::string& login : keys.logins) {
    moira::RowRef fs = mc.FilesysByLabel(login);
    moira::RowRef user = mc.UserByLogin(login);
    if (fs.code != moira::MR_SUCCESS || user.code != moira::MR_SUCCESS) {
      continue;
    }
    moira::RowRef mach = mc.ExactOne(
        mc.machine(), "mach_id",
        moira::Value(MoiraContext::IntCell(mc.filesys(), fs.row, "mach_id")),
        moira::MR_MACHINE);
    moira::RowRef phys = mc.ExactOne(
        mc.nfsphys(), "nfsphys_id",
        moira::Value(MoiraContext::IntCell(mc.filesys(), fs.row, "phys_id")),
        moira::MR_NFSPHYS);
    if (mach.code != moira::MR_SUCCESS || phys.code != moira::MR_SUCCESS) {
      continue;
    }
    // report_quota_usage names a partition by its directory with the
    // slashes folded: "/u1" -> "u1".
    std::string stem;
    for (char c : MoiraContext::StrCell(mc.nfsphys(), phys.row, "dir")) {
      if (c != '/') {
        stem += c;
      } else if (!stem.empty()) {
        stem += '_';
      }
    }
    keys.quotas.emplace_back(MoiraContext::StrCell(mc.machine(), mach.row, "name"), stem,
                             MoiraContext::IntCell(mc.users(), user.row, "uid"));
  }
  return keys;
}

Site::Site() {
  db = std::make_unique<moira::Database>(&clock);
  moira::CreateMoiraSchema(db.get());
  moira::SeedMoiraDefaults(db.get());
  mc = std::make_unique<MoiraContext>(db.get());
  realm = std::make_unique<moira::KerberosRealm>(&clock);
  builder = std::make_unique<moira::SiteBuilder>(mc.get(), realm.get());
  builder->Build(PaperSpec());
}

void PollLoop::Start() {
  stop_.store(false);
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      if (tcp_->Poll(50) < 0) {
        break;
      }
    }
  });
}

void PollLoop::Stop() {
  stop_.store(true);
  if (thread_.joinable()) {
    thread_.join();
  }
}

std::unique_ptr<moira::MrClient> ConnectClient(uint16_t port, moira::KerberosRealm* realm,
                                               ChannelTap* tap) {
  auto client = std::make_unique<moira::MrClient>(
      [port, tap]() -> std::unique_ptr<moira::ClientChannel> {
        auto channel = std::make_unique<moira::TcpChannel>();
        if (channel->Connect(port) != moira::MR_SUCCESS) {
          return nullptr;
        }
        if (tap != nullptr) {
          return std::make_unique<TappedChannel>(std::move(channel), tap);
        }
        return channel;
      });
  client->SetKerberosIdentity(realm, kClientPrincipal, kClientPassword);
  if (client->Connect() != moira::MR_SUCCESS || client->Auth(kClientName) != moira::MR_SUCCESS) {
    return nullptr;
  }
  return client;
}

LookupDeployment::LookupDeployment(bool is_traced, Tracer* tracer,
                                   std::vector<SlotContext>* slots) {
  moira::ServerOptions options;
  options.read_pool = &read_pool;
  server = std::make_unique<moira::MoiraServer>(site.mc.get(), site.realm.get(), options);
  if (is_traced) {
    traced = std::make_unique<TracedHandler>(server.get(), tracer->NewBuffer(), slots);
  }
  tcp = std::make_unique<moira::TcpServer>(handler());
  poll = std::make_unique<PollLoop>(tcp.get());
  if (tcp->Listen(0) == moira::MR_SUCCESS) {
    poll->Start();
  }
}

ClusterDeployment::ClusterDeployment(const std::string& dir, bool is_traced,
                                     Tracer* tracer, std::vector<SlotContext>* slots)
    : data_dir(dir) {
  realm = std::make_unique<moira::KerberosRealm>(&realm_clock);
  realm->AddPrincipal("root", "rootpw");
  for (int i = 0; i < 3; ++i) {
    moira::ReplicaOptions options;
    options.name = "n" + std::to_string(i);
    options.start_time = kSiteEpoch;
    options.server_options.cluster_size = 3;  // write_quorum 0: majority, 2 of 3
    nodes.push_back(std::make_unique<moira::ReplicaServer>(realm.get(), options));
    // Every node holds the identical seeded site, built at the same
    // simulated time, so replicas start byte-identical to the primary.
    auto node_builder = std::make_unique<moira::SiteBuilder>(&nodes.back()->context(),
                                                             realm.get());
    node_builder->Build(PaperSpec());
    if (i == 0) {
      builder = std::move(node_builder);
    }
  }
  for (int i = 1; i < 3; ++i) {
    moira::MessageHandler* target = nodes[static_cast<size_t>(i)].get();
    if (is_traced) {
      taps.push_back(std::make_unique<ReplicaTap>(target));
      target = taps.back().get();
    }
    nodes[0]->AddPeer(nodes[static_cast<size_t>(i)]->name(),
                      [target] { return std::make_unique<moira::LoopbackChannel>(target); });
    // The pull link is only used by the end-of-run catch-up before the
    // convergence oracle.
    moira::ReplicaServer* primary_node = nodes[0].get();
    nodes[static_cast<size_t>(i)]->SetPrimaryLink(
        [primary_node] { return std::make_unique<moira::LoopbackChannel>(primary_node); },
        "root", "rootpw");
  }
  // SetPrimaryLink records the credentials the promoted node pushes with.
  moira::ReplicaServer* self = nodes[0].get();
  nodes[0]->SetPrimaryLink([self] { return std::make_unique<moira::LoopbackChannel>(self); },
                           "root", "rootpw");
  nodes[0]->PromoteWithEpoch(1);
  nodes[0]->server().journal().AttachDirectory(data_dir);
  moira::MessageHandler* front = nodes[0].get();
  if (is_traced) {
    traced = std::make_unique<TracedHandler>(front, tracer->NewBuffer(), slots);
    front = traced.get();
  }
  tcp = std::make_unique<moira::TcpServer>(front);
  poll = std::make_unique<PollLoop>(tcp.get());
  if (tcp->Listen(0) == moira::MR_SUCCESS) {
    poll->Start();
  }
}

ClusterDeployment::~ClusterDeployment() {
  if (poll) {
    poll->Stop();
  }
  tcp.reset();
  // Loopback channels hold raw handler pointers into sibling nodes; close
  // them while every node is still alive.
  for (auto& node : nodes) {
    node->DisconnectAll();
  }
}

DcmDeployment::DcmDeployment(const std::string& dir) {
  zephyr = std::make_unique<moira::ZephyrBus>(&site.clock);
  hosts = moira::CreateSimHosts(*site.mc, site.realm.get(), &directory);
  dcm = std::make_unique<moira::Dcm>(site.mc.get(), site.realm.get(), zephyr.get(),
                                     &directory);
  moira::ConfigureStandardServices(dcm.get());
  journal.AttachDirectory(dir);
  dcm->AttachJournal(&journal);
  site.clock.Advance(moira::kSecondsPerDay);
  first_pass = dcm->RunOnce();
}

namespace {

// Where each service's install script puts archive members on a host.
struct ServiceInstall {
  const char* service;
  moira::GeneratorFn generate;
  const char* dir;
};

}  // namespace

int VerifyInstalledFiles(DcmDeployment& d, int* mismatches) {
  const ServiceInstall installs[] = {
      {"HESIOD", moira::GenerateHesiod, "/etc/athena/hesiod/"},
      {"NFS", moira::GenerateNfs, "/site/moira/"},
      {"SMTP", moira::GenerateMail, "/usr/lib/moira.staged/"},
      {"ZEPHYR", moira::GenerateZephyrAcls, "/etc/athena/zephyr/acl/"},
  };
  MoiraContext& mc = *d.site.mc;
  int compared = 0;
  *mismatches = 0;
  for (const ServiceInstall& svc : installs) {
    moira::GeneratorResult fresh;
    if (svc.generate(mc, &fresh) != moira::MR_SUCCESS) {
      ++*mismatches;
      continue;
    }
    moira::Table* sh = mc.serverhosts();
    for (size_t row :
         moira::From(sh).WhereEq("service", moira::Value(std::string(svc.service))).Rows()) {
      if (MoiraContext::IntCell(sh, row, "enable") < 1) {
        continue;
      }
      moira::RowRef mach = mc.ExactOne(
          mc.machine(), "mach_id", moira::Value(MoiraContext::IntCell(sh, row, "mach_id")),
          moira::MR_MACHINE);
      if (mach.code != moira::MR_SUCCESS) {
        ++*mismatches;
        continue;
      }
      const std::string& name = MoiraContext::StrCell(mc.machine(), mach.row, "name");
      moira::SimHost* host = d.directory.Find(name);
      if (host == nullptr) {
        ++*mismatches;
        continue;
      }
      for (const auto& [member, contents] : fresh.ForHost(name).members()) {
        const std::string* got = host->ReadFile(std::string(svc.dir) + member);
        ++compared;
        if (got == nullptr || *got != contents) {
          ++*mismatches;
        }
      }
    }
  }
  return compared;
}

}  // namespace perfbench
