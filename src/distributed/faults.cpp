#include "distributed/faults.hpp"

#include <sstream>

#include "common/env.hpp"

namespace dace::dist {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::None: return "none";
    case FaultKind::Drop: return "drop";
    case FaultKind::Delay: return "delay";
    case FaultKind::Duplicate: return "duplicate";
    case FaultKind::Reorder: return "reorder";
    case FaultKind::Stall: return "stall";
    case FaultKind::Crash: return "crash";
  }
  return "?";
}

std::string FaultEvent::to_string() const {
  std::ostringstream os;
  os << fault_kind_name(kind) << " rank=" << rank;
  if (peer >= 0) os << " peer=" << peer;
  if (tag >= 0) os << " tag=" << tag;
  if (bytes > 0) os << " bytes=" << bytes;
  os << " seq=" << seq;
  if (attempt > 0) os << " attempt=" << attempt;
  return os.str();
}

namespace {

constexpr env::SpecField<FaultPlan> kFields[] = {
    {"seed", env::SpecKind::Seed, &FaultPlan::seed},
    {"drop", env::SpecKind::Probability, &FaultPlan::drop_prob},
    {"delay", env::SpecKind::Probability, &FaultPlan::delay_prob},
    {"delay_s", env::SpecKind::Seconds, &FaultPlan::delay_s, true},
    {"dup", env::SpecKind::Probability, &FaultPlan::dup_prob},
    {"reorder", env::SpecKind::Probability, &FaultPlan::reorder_prob},
    {"stall_rank", env::SpecKind::Index, &FaultPlan::stall_rank},
    {"stall_at", env::SpecKind::Index, &FaultPlan::stall_at_op, true},
    {"stall_s", env::SpecKind::Seconds, &FaultPlan::stall_s, true},
    {"crash_rank", env::SpecKind::Index, &FaultPlan::crash_rank},
    {"crash_at", env::SpecKind::Index, &FaultPlan::crash_at_op, true},
};
constexpr env::Spec<FaultPlan> kSpec("fault plan", kFields);

}  // namespace

bool FaultPlan::active() const { return kSpec.active(*this); }

FaultKind FaultPlan::decide_message(int src, int dst, int tag, uint64_t seq,
                                    int attempt) const {
  double u = fault_draw(seed, {(uint64_t)src, (uint64_t)dst,
                              (uint64_t)(tag + 1), seq,
                              (uint64_t)(attempt + 1)});
  double t = drop_prob;
  if (u < t) return FaultKind::Drop;
  // Non-drop faults fire only on the first transmission: retransmissions
  // model a careful sender, and re-duplicating a retry would double-count.
  if (attempt > 0) return FaultKind::None;
  if (u < (t += dup_prob)) return FaultKind::Duplicate;
  if (u < (t += reorder_prob)) return FaultKind::Reorder;
  if (u < (t += delay_prob)) return FaultKind::Delay;
  return FaultKind::None;
}

FaultKind FaultPlan::decide_rank_op(int rank, int64_t op_index) const {
  if (rank == crash_rank && op_index == crash_at_op) return FaultKind::Crash;
  if (rank == stall_rank && op_index == stall_at_op) return FaultKind::Stall;
  return FaultKind::None;
}

std::string FaultPlan::to_string() const { return kSpec.to_string(*this); }

FaultPlan FaultPlan::parse(const std::string& spec) {
  return kSpec.parse(spec);
}

FaultPlan FaultPlan::from_env() {
  return kSpec.from_env("DACE_FAULT_PLAN", "DACE_FAULT_SEED");
}

namespace {
std::string join_failures(const std::vector<RankFailure>& fails) {
  std::ostringstream os;
  os << "distributed run failed on " << fails.size() << " rank"
     << (fails.size() == 1 ? "" : "s") << ":";
  for (const auto& f : fails) os << "\n  [rank " << f.rank << "] " << f.what;
  return os.str();
}
}  // namespace

DistError::DistError(std::vector<RankFailure> fails)
    : Error(join_failures(fails)), failures_(std::move(fails)) {}

}  // namespace dace::dist
