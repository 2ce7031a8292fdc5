// rt::admit() against a hand-written decision table (DESIGN.md §10): every
// combination of exec model × lease outcome × tenant-budget answer ×
// queue-depth answer, checking the verdict, the reason, and which of the two
// side-effecting probes ran — a probe that runs where it cannot change the
// verdict debits tokens or steps the hysteresis for nothing. The probe
// columns also pin the order: had the depth probe run first, the rows with
// an empty budget would show it probed.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <tuple>

#include "rt/admission.hpp"

namespace iofwd::rt {
namespace {

struct Row {
  ExecModel exec;
  bool leased;
  bool within_budget;  // the budget probe's answer, if asked
  bool queue_deep;     // the depth probe's answer, if asked
  Verdict verdict;
  AdmitReason reason;
  bool budget_probed;
  bool depth_probed;
};

constexpr ExecModel kTpc = ExecModel::thread_per_client;
constexpr ExecModel kWq = ExecModel::work_queue;
constexpr ExecModel kAsync = ExecModel::work_queue_async;
constexpr Verdict kInline = Verdict::inline_exec;
constexpr Verdict kSync = Verdict::sync_stage;
constexpr Verdict kStage = Verdict::async_stage;
constexpr Verdict kPass = Verdict::passthrough;
constexpr AdmitReason kNone = AdmitReason::none;
constexpr AdmitReason kBml = AdmitReason::bml_wait;
constexpr AdmitReason kBudget = AdmitReason::tenant_budget;
constexpr AdmitReason kDepth = AdmitReason::queue_depth;

// exec, leased, budget, deep -> verdict, reason, budget probed, depth probed
constexpr Row kTable[] = {
    {kTpc, false, false, false, kPass, kBml, false, false},
    {kTpc, false, false, true, kPass, kBml, false, false},
    {kTpc, false, true, false, kPass, kBml, false, false},
    {kTpc, false, true, true, kPass, kBml, false, false},
    {kTpc, true, false, false, kInline, kNone, false, false},
    {kTpc, true, false, true, kInline, kNone, false, false},
    {kTpc, true, true, false, kInline, kNone, false, false},
    {kTpc, true, true, true, kInline, kNone, false, false},
    {kWq, false, false, false, kPass, kBml, false, false},
    {kWq, false, false, true, kPass, kBml, false, false},
    {kWq, false, true, false, kPass, kBml, false, false},
    {kWq, false, true, true, kPass, kBml, false, false},
    {kWq, true, false, false, kSync, kNone, false, false},
    {kWq, true, false, true, kSync, kNone, false, false},
    {kWq, true, true, false, kSync, kNone, false, false},
    {kWq, true, true, true, kSync, kNone, false, false},
    {kAsync, false, false, false, kPass, kBml, false, false},
    {kAsync, false, false, true, kPass, kBml, false, false},
    {kAsync, false, true, false, kPass, kBml, false, false},
    {kAsync, false, true, true, kPass, kBml, false, false},
    {kAsync, true, false, false, kSync, kBudget, true, false},
    {kAsync, true, false, true, kSync, kBudget, true, false},
    {kAsync, true, true, false, kStage, kNone, true, true},
    {kAsync, true, true, true, kSync, kDepth, true, true},
};

TEST(Admission, ExhaustiveDecisionTable) {
  static_assert(std::size(kTable) == 3 * 2 * 2 * 2, "every input combination, once");
  std::set<std::tuple<ExecModel, bool, bool, bool>> inputs;
  for (const Row& r : kTable) {
    inputs.emplace(r.exec, r.leased, r.within_budget, r.queue_deep);
    const std::string where = std::string(to_string(r.exec)) + " leased=" +
                              std::to_string(r.leased) + " budget=" +
                              std::to_string(r.within_budget) + " deep=" +
                              std::to_string(r.queue_deep);
    int budget_calls = 0;
    int depth_calls = 0;
    const Admission a = admit(
        r.exec, r.leased,
        [&] {
          ++budget_calls;
          return r.within_budget;
        },
        [&] {
          ++depth_calls;
          return r.queue_deep;
        });
    EXPECT_EQ(a, (Admission{r.verdict, r.reason})) << where;
    // The server keeps one counter per kAdmissions entry.
    EXPECT_NE(std::find(kAdmissions.begin(), kAdmissions.end(), a), kAdmissions.end()) << where;
    EXPECT_EQ(budget_calls, r.budget_probed ? 1 : 0) << where;
    EXPECT_EQ(depth_calls, r.depth_probed ? 1 : 0) << where;
  }
  EXPECT_EQ(inputs.size(), std::size(kTable)) << "a combination is listed twice";
}

}  // namespace
}  // namespace iofwd::rt
