// IRG (Algorithm 2) and SHORT (Appendix C) dispatchers.
#include "dispatch/dispatchers.h"
#include "dispatch/irg_core.h"
#include "dispatch/pipeline.h"

namespace mrvd {

namespace {

class IrgDispatcher final : public Dispatcher {
 public:
  explicit IrgDispatcher(GreedyObjective objective, std::string name)
      : objective_(objective), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  const DispatchCounters* counters() const override { return &counters_; }

  void Dispatch(const BatchContext& ctx, std::vector<Assignment>* out) override {
    // Sharded preparation (parallel when the batch carries an execution),
    // then the exact sequential selection over the canonical pair list.
    counters_ = {};
    PreparedBatch prepared = PrepareShardedBatch(ctx);
    counters_.shards = std::move(prepared.shard_stats);
    IrgState state = RunGreedySelection(ctx, prepared.pairs, objective_);
    *out = std::move(state.assignments);
  }

 private:
  GreedyObjective objective_;
  std::string name_;
  DispatchCounters counters_;  ///< shard telemetry of the latest Dispatch
};

}  // namespace

std::unique_ptr<Dispatcher> MakeIrgDispatcher() {
  return std::make_unique<IrgDispatcher>(GreedyObjective::kIdleRatio, "IRG");
}

std::unique_ptr<Dispatcher> MakeShortDispatcher() {
  return std::make_unique<IrgDispatcher>(GreedyObjective::kShortestTotalTime,
                                         "SHORT");
}

}  // namespace mrvd
