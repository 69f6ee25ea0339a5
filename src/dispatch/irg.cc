// IRG (Algorithm 2) and SHORT (Appendix C) dispatchers.
#include "dispatch/dispatchers.h"
#include "dispatch/irg_core.h"

namespace mrvd {

namespace {

class IrgDispatcher final : public Dispatcher {
 public:
  explicit IrgDispatcher(GreedyObjective objective, std::string name)
      : objective_(objective), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  void Dispatch(const BatchContext& ctx, std::vector<Assignment>* out) override {
    IrgState state = RunGreedySelection(ctx, ctx.ValidPairs(), objective_);
    *out = std::move(state.assignments);
  }

 private:
  GreedyObjective objective_;
  std::string name_;
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
