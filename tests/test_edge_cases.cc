// Edge-case and failure-injection tests across module boundaries: corrupt
// wire input, disappearing hosts, empty databases, and odd-but-legal inputs.
#include <filesystem>

#include "src/backup/backup.h"
#include "src/client/client.h"
#include "src/dcm/dcm.h"
#include "src/dcm/generators.h"
#include "src/reg/regserver.h"
#include "src/server/server.h"
#include "src/sim/population.h"
#include "src/zephyrd/zephyr_bus.h"
#include "tests/test_env.h"

namespace moira {
namespace {

class EdgeCaseTest : public MoiraEnv {};

TEST_F(EdgeCaseTest, ServerRejectsGarbagePayload) {
  MoiraServer server(mc_.get(), realm_.get());
  LoopbackChannel channel(&server);
  // A well-framed message whose payload is not a request.
  std::string garbage = "not-a-request";
  std::string framed;
  framed.push_back(0);
  framed.push_back(0);
  framed.push_back(0);
  framed.push_back(static_cast<char>(garbage.size()));
  framed += garbage;
  ASSERT_EQ(MR_SUCCESS, channel.Send(framed));
  std::string payload;
  ASSERT_EQ(MR_SUCCESS, channel.Recv(&payload));
  EXPECT_EQ(MR_ABORTED, DecodeReply(payload)->code);
}

TEST_F(EdgeCaseTest, ServerRejectsEmptyQueryName) {
  MoiraServer server(mc_.get(), realm_.get());
  MrClient client([&server] { return std::make_unique<LoopbackChannel>(&server); });
  ASSERT_EQ(MR_SUCCESS, client.Connect());
  EXPECT_EQ(MR_NO_HANDLE, client.Query("", {}, [](Tuple) {}));
}

TEST_F(EdgeCaseTest, AuthWithNoArgsIsArgsError) {
  MoiraServer server(mc_.get(), realm_.get());
  LoopbackChannel channel(&server);
  ASSERT_EQ(MR_SUCCESS, channel.Send(EncodeRequest(
                            MrRequest{kMrProtocolVersion, MajorRequest::kAuthenticate,
                                      {}})));
  std::string payload;
  ASSERT_EQ(MR_SUCCESS, channel.Recv(&payload));
  EXPECT_EQ(MR_ARGS, DecodeReply(payload)->code);
}

TEST_F(EdgeCaseTest, UnknownMajorRequest) {
  MoiraServer server(mc_.get(), realm_.get());
  LoopbackChannel channel(&server);
  MrRequest request{kMrProtocolVersion, static_cast<MajorRequest>(99), {}};
  ASSERT_EQ(MR_SUCCESS, channel.Send(EncodeRequest(request)));
  std::string payload;
  ASSERT_EQ(MR_SUCCESS, channel.Recv(&payload));
  EXPECT_EQ(MR_UNKNOWN_PROC, DecodeReply(payload)->code);
}

TEST_F(EdgeCaseTest, DcmSurvivesMissingSimHost) {
  // A serverhost row whose machine has no registered host is a configuration
  // error: the update fails hard (flagged in hosterror, halting replicated
  // services) rather than being retried forever as a soft failure — and it
  // never crashes the DCM.
  SiteBuilder builder(mc_.get(), realm_.get());
  builder.Build(TestSiteSpec());
  ZephyrBus zephyr(&clock_);
  HostDirectory directory;  // deliberately empty: every host is unreachable
  Dcm dcm(mc_.get(), realm_.get(), &zephyr, &directory);
  ConfigureStandardServices(&dcm);
  clock_.Advance(kSecondsPerDay);
  DcmRunSummary summary = dcm.RunOnce();
  EXPECT_TRUE(summary.ran);
  EXPECT_EQ(4, summary.services_generated);
  EXPECT_EQ(0, summary.hosts_updated);
  EXPECT_EQ(0, summary.host_soft_failures);
  // Replicated services halt their host scan on the first hard failure, so
  // not every serverhost row is visited.
  EXPECT_EQ(6, summary.host_hard_failures);
}

TEST_F(EdgeCaseTest, DcmWithNoServicesConfigured) {
  SiteBuilder builder(mc_.get(), realm_.get());
  builder.Build(TestSiteSpec());
  ZephyrBus zephyr(&clock_);
  HostDirectory directory;
  Dcm dcm(mc_.get(), realm_.get(), &zephyr, &directory);  // no generators
  clock_.Advance(kSecondsPerDay);
  DcmRunSummary summary = dcm.RunOnce();
  EXPECT_TRUE(summary.ran);
  EXPECT_EQ(0, summary.services_considered);
}

TEST_F(EdgeCaseTest, BackupOfEmptyDatabaseRestores) {
  TestDir root;
  const std::filesystem::path dir = root / "empty-dump";
  SimulatedClock clock(0);
  Database empty(&clock);
  CreateMoiraSchema(&empty);
  EXPECT_EQ(0, BackupManager::Dump(empty, dir));
  Database restored(&clock);
  CreateMoiraSchema(&restored);
  EXPECT_EQ(MR_SUCCESS, BackupManager::Restore(&restored, dir));
}

TEST_F(EdgeCaseTest, RestoreFromMissingDirectoryIsEmptyRestore) {
  Database restored(&clock_);
  CreateMoiraSchema(&restored);
  EXPECT_EQ(MR_SUCCESS,
            BackupManager::Restore(&restored, "/nonexistent/moira/backup"));
  EXPECT_EQ(0u, restored.GetTable(kUsersTable)->LiveCount());
}

TEST_F(EdgeCaseTest, RegServerUnknownRequestType) {
  RegistrationServer reg(mc_.get(), realm_.get());
  std::string packet;
  PackField(&packet, "9");
  PackField(&packet, "First");
  PackField(&packet, "Last");
  PackField(&packet, "auth");
  std::string reply = reg.HandlePacket(packet);
  std::string_view view(reply);
  std::string code;
  ASSERT_TRUE(UnpackField(&view, &code));
  EXPECT_EQ(std::to_string(MR_REG_BAD_AUTH), code);
}

TEST_F(EdgeCaseTest, LoginWithMaximallyAwkwardLegalCharacters) {
  // Legal but unusual: dots, dashes, underscores.
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_user", {"a.b-c_d", "777", "/bin/csh", "L", "F", "M",
                                             "1", "id", "G"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_user_by_login", {"a.b-c_d"}, &tuples));
  EXPECT_EQ("a.b-c_d", tuples[0][0]);
}

TEST_F(EdgeCaseTest, EmptyStringArgumentsAccepted) {
  // Finger fields are free-form and may be empty.
  AddActiveUser("empties", 800);
  EXPECT_EQ(MR_SUCCESS, RunRoot("update_finger_by_login",
                                {"empties", "", "", "", "", "", "", "", ""}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_finger_by_login", {"empties"}, &tuples));
  EXPECT_EQ("", tuples[0][1]);
}

TEST_F(EdgeCaseTest, WildcardOnlyPatternMatchesAll) {
  AddActiveUser("wa", 801);
  AddActiveUser("wb", 802);
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_user_by_login", {"*"}, &tuples));
  EXPECT_EQ(2u, tuples.size());
}

TEST_F(EdgeCaseTest, ClientSurvivesServerDestruction) {
  auto server = std::make_unique<MoiraServer>(mc_.get(), realm_.get());
  MrClient client(
      [&server]() -> std::unique_ptr<ClientChannel> {
        if (server == nullptr) {
          return nullptr;
        }
        return std::make_unique<LoopbackChannel>(server.get());
      });
  ASSERT_EQ(MR_SUCCESS, client.Connect());
  ASSERT_EQ(MR_SUCCESS, client.Noop());
  ASSERT_EQ(MR_SUCCESS, client.Disconnect());
  server.reset();
  // Reconnect fails cleanly rather than crashing.
  EXPECT_EQ(MR_ABORTED, client.Connect());
  EXPECT_EQ(MR_NOT_CONNECTED, client.Noop());
}

TEST_F(EdgeCaseTest, RegisterUserExhaustsPopCapacity) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"po.mit.edu", "VAX"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"nfs.mit.edu", "VAX"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_server_info",
                                {"POP", "0", "", "", "UNIQUE", "1", "NONE", "NONE"}));
  // Capacity for exactly one pobox.
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_server_host_info",
                                {"POP", "po.mit.edu", "1", "0", "1", ""}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_nfsphys", {"nfs.mit.edu", "/u1", "ra0",
                                                std::to_string(kFsStudent), "0",
                                                "100000"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_user", {kUniqueLogin, "-1", "/bin/csh", "One", "Stu",
                                             "A", "0", "h1", "1989"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_user", {kUniqueLogin, "-1", "/bin/csh", "Two", "Stu",
                                             "B", "0", "h2", "1989"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_user_by_name", {"Stu", "One"}, &tuples));
  ASSERT_EQ(MR_SUCCESS, RunRoot("register_user", {tuples[0][1], "stuone", "1"}));
  tuples.clear();
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_user_by_name", {"Stu", "Two"}, &tuples));
  // The only post office is full: registration fails cleanly.
  EXPECT_EQ(MR_MACHINE, RunRoot("register_user", {tuples[0][1], "stutwo", "1"}));
}

TEST_F(EdgeCaseTest, RegisterUserNeedsMatchingFstype) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"po.mit.edu", "VAX"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"nfs.mit.edu", "VAX"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_server_info",
                                {"POP", "0", "", "", "UNIQUE", "1", "NONE", "NONE"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_server_host_info",
                                {"POP", "po.mit.edu", "1", "0", "10", ""}));
  // Only a faculty partition exists; a student registration cannot place a
  // home directory.
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_nfsphys", {"nfs.mit.edu", "/u1", "ra0",
                                                std::to_string(kFsFaculty), "0",
                                                "100000"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_user", {kUniqueLogin, "-1", "/bin/csh", "Kid", "New",
                                             "A", "0", "h", "1989"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_user_by_name", {"New", "Kid"}, &tuples));
  EXPECT_EQ(MR_NO_FILESYS,
            RunRoot("register_user", {tuples[0][1], "newkid", std::to_string(kFsStudent)}));
  EXPECT_EQ(MR_SUCCESS,
            RunRoot("register_user", {tuples[0][1], "newkid", std::to_string(kFsFaculty)}));
}

TEST_F(EdgeCaseTest, GeneratorsOnEmptySiteProduceValidFiles) {
  // Generators must produce valid (possibly empty) files on a bare schema.
  GeneratorResult hesiod;
  EXPECT_EQ(MR_SUCCESS, GenerateHesiod(*mc_, &hesiod));
  EXPECT_EQ(11u, hesiod.common.size());
  GeneratorResult nfs;
  EXPECT_EQ(MR_SUCCESS, GenerateNfs(*mc_, &nfs));
  EXPECT_TRUE(nfs.per_host.empty());
  GeneratorResult mail;
  EXPECT_EQ(MR_SUCCESS, GenerateMail(*mc_, &mail));
  EXPECT_NE(nullptr, mail.common.Find("aliases"));
  GeneratorResult zephyr;
  EXPECT_EQ(MR_SUCCESS, GenerateZephyrAcls(*mc_, &zephyr));
  EXPECT_TRUE(zephyr.common.empty());
}

}  // namespace
}  // namespace moira
