// Layer-boundary instrumentation that lives entirely outside the engine:
// a timing decorator around the real ContractSource, and a one-thread
// replay of the recovery layers that splits CPU time by layer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common.hpp"
#include "evm/bytecode.hpp"
#include "sigrec/pipeline.hpp"

namespace perfbench {

// Forwards every call to `inner`, timing each next() and recording it as a
// span under `parent`. Driven from the engine's single ingestion thread.
class TimingSource final : public sigrec::core::ContractSource {
 public:
  TimingSource(sigrec::core::ContractSource& inner, SpanLog& log, std::int64_t parent)
      : inner_(inner), log_(log), parent_(parent) {}

  [[nodiscard]] std::optional<sigrec::core::SourceItem> next() override;
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return inner_.size_hint();
  }
  [[nodiscard]] std::size_t ordinal_base() const override { return inner_.ordinal_base(); }
  [[nodiscard]] std::optional<sigrec::core::SourceStats> stats() const override {
    return inner_.stats();
  }

  [[nodiscard]] double next_seconds() const { return next_seconds_; }
  [[nodiscard]] std::uint64_t items() const { return items_; }
  [[nodiscard]] std::uint64_t errors() const { return errors_; }

 private:
  sigrec::core::ContractSource& inner_;
  SpanLog& log_;
  const std::int64_t parent_;
  double next_seconds_ = 0;
  std::uint64_t items_ = 0;
  std::uint64_t errors_ = 0;
};

// Thread-CPU seconds and work counts per recovery layer, from replaying
// codes one at a time through the layers' public functions:
// Bytecode::disassembly -> extract_dispatch_table -> SymExecutor::run per
// selector -> run_tase.
struct LayerReplay {
  double disasm_s = 0;
  double extract_s = 0;
  double symexec_s = 0;
  double tase_s = 0;
  std::uint64_t disasm_calls = 0;
  std::uint64_t functions = 0;
  std::uint64_t runs = 0;
  std::uint64_t steps = 0;
  std::uint64_t paths = 0;
  std::uint64_t incomplete_runs = 0;
  std::uint64_t tase_calls = 0;
  // Dispatcher functions found per replayed code, in input order.
  std::vector<std::size_t> functions_per_code;

  [[nodiscard]] double cpu_s() const { return disasm_s + extract_s + symexec_s + tase_s; }
};

// Replays every code in `codes` on the calling thread with the shipped
// default limits. Each code is copied first, so its disassembly is computed
// (and timed) afresh.
[[nodiscard]] LayerReplay replay_layers(const std::vector<sigrec::evm::Bytecode>& codes,
                                        SpanLog& log);

}  // namespace perfbench
