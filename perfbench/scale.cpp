// perfbench -- scale_10k, the workload that runs core::run_pipeline in the
// op: one op is run_pipeline on a ~10k-event generated model, the only
// workload where collection over many events, projection and QRCP -- not
// the cache simulation -- set the time.
#include <optional>
#include <string>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "modelgen/generator.hpp"
#include "modelgen/verify.hpp"

namespace perfbench {

using namespace catalyst;

namespace {

void add_stages(Layers& layers, const core::PipelineResult& result) {
  for (const obs::StageTiming& stage : result.stage_timings) {
    add_stage(layers, stage.name, static_cast<double>(stage.wall_ns) / 1e6,
              /*leaf=*/true);
  }
}

/// The generated model is fixed rather than drawn from --seed: the preset
/// draws up to 300 aliases per dimension, so its event count -- and with it
/// the op time -- varies by a quarter or more from seed to seed, which would
/// swamp any regression bound.
constexpr std::uint64_t kModelSeed = 2024;

class Scale10k final : public Workload {
 public:
  void setup(Layers& layers) override {
    model_ = timed(layers, "modelgen.generate", false, [] {
      return modelgen::generate(
          modelgen::GeneratorSpec::scale_10k(kModelSeed));
    });
    machine_ = timed(layers, "pmu.machine", false,
                     [&] { return model_->machine(); });
  }

  OpResult op(Layers& layers, bool) override {
    OpResult out;
    const Clock::time_point start = Clock::now();
    const core::PipelineResult result = core::run_pipeline(
        *machine_, model_->benchmark, model_->signatures, model_->options);
    out.ms = ms_between(start, Clock::now());
    add_stages(layers, result);

    const modelgen::RecoveryOutcome verdict =
        modelgen::verify_recovery(*model_, result);
    if (verdict.any_wrong()) {
      out.ok = false;
      out.failure = "recovery verdict 'wrong': " + verdict.repro();
    }
    return out;
  }

  int analyses_per_op() const override { return 1; }

  std::string describe() const override {
    return "model_seed=" + std::to_string(kModelSeed) +
           " events=" + std::to_string(machine_->events().size()) +
           " slots=" + std::to_string(model_->benchmark.slots.size()) +
           " dims=" + std::to_string(model_->dims);
  }

 private:
  std::optional<modelgen::GeneratedModel> model_;
  std::optional<pmu::Machine> machine_;
};

}  // namespace

std::unique_ptr<Workload> make_scale_10k(const WorkloadContext&) {
  return std::make_unique<Scale10k>();
}

}  // namespace perfbench
