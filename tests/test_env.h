// Shared fixtures for the Moira test suite.
#ifndef MOIRA_TESTS_TEST_ENV_H_
#define MOIRA_TESTS_TEST_ENV_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "src/comerr/moira_errors.h"
#include "src/common/clock.h"
#include "src/core/context.h"
#include "src/core/registry.h"
#include "src/core/schema.h"
#include "src/krb/kerberos.h"

namespace moira {

// A scratch directory private to the running test case, created empty:
// $TMPDIR/moira-test/<Suite>.<Test>-<pid> ($TMPDIR defaults to /tmp).
// gtest_discover_tests runs every case as its own process, so test name +
// pid keeps parallel `ctest -j` runs, concurrent build trees and repeated
// runs from sharing a directory.  Removed when this object goes out of scope
// unless KeepAs() was called.
class TestDir : public std::filesystem::path {
 public:
  TestDir() : path(Root() / Name()) {
    std::filesystem::remove_all(*this);
    std::filesystem::create_directories(*this);
  }
  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  ~TestDir() {
    std::error_code ec;
    if (!keep_as_.empty()) {
      // Hand the directory to a later tool under a stable name, replacing an
      // older copy; if a concurrent run wins the rename, drop ours.
      const std::filesystem::path dest = Root() / keep_as_;
      std::filesystem::remove_all(dest, ec);
      std::filesystem::rename(*this, dest, ec);
      if (!ec) {
        return;
      }
    }
    std::filesystem::remove_all(*this, ec);
  }

  // Leaves the directory behind as $TMPDIR/moira-test/<name> once the test
  // is over.
  void KeepAs(std::string name) { keep_as_ = std::move(name); }

 private:
  static std::filesystem::path Root() {
    return std::filesystem::temp_directory_path() / "moira-test";
  }

  static std::string Name() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info == nullptr ? "no-test"
                                       : std::string(info->test_suite_name()) + "." +
                                             info->name();
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized cases
    return name + "-" + std::to_string(::getpid());
  }

  std::string keep_as_;
};

// A fresh, seeded, empty Moira database with a simulated clock starting at a
// realistic 1988 timestamp.
class MoiraEnv : public ::testing::Test {
 protected:
  MoiraEnv()
      : clock_(568000000)  // late 1987, in keeping with the paper's era
  {
    db_ = std::make_unique<Database>(&clock_);
    CreateMoiraSchema(db_.get());
    SeedMoiraDefaults(db_.get());
    mc_ = std::make_unique<MoiraContext>(db_.get());
    realm_ = std::make_unique<KerberosRealm>(&clock_);
    RegisterMoiraErrorTable();
  }

  // Runs a query as `principal` collecting tuples.
  int32_t Run(std::string_view principal, std::string_view query,
              const std::vector<std::string>& args, std::vector<Tuple>* tuples = nullptr) {
    return QueryRegistry::Instance().Execute(
        *mc_, principal, "test", query, args, [&](Tuple tuple) {
          if (tuples != nullptr) {
            tuples->push_back(std::move(tuple));
          }
        });
  }

  // Runs as root (the glue-library identity used by the DCM).
  int32_t RunRoot(std::string_view query, const std::vector<std::string>& args,
                  std::vector<Tuple>* tuples = nullptr) {
    return Run("root", query, args, tuples);
  }

  // Adds a minimal active user directly through the query layer.
  void AddActiveUser(const std::string& login, int uid) {
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_user", {login, std::to_string(uid), "/bin/csh",
                                               "Last" + login, "First" + login, "Q", "1",
                                               "hash" + login, "G"}));
  }

  SimulatedClock clock_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<MoiraContext> mc_;
  std::unique_ptr<KerberosRealm> realm_;
};

}  // namespace moira

#endif  // MOIRA_TESTS_TEST_ENV_H_
