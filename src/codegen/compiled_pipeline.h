// CompiledPipelineOp: the phys-op face of the codegen tier (DESIGN.md
// §12). It is spliced between a table scan and the consumers of a
// lowered chain — σ filters plus one terminal — and runs each batch
// either through the compiled function (one native pass) or — while the
// async compile is still pending, when the batch carries no typed
// columns, or when a per-batch guard fails — through the original
// interpreted chain, which remains wired to the same consumers. Both
// paths are batch-exact, so mixed compiled/interpreted executions are
// indistinguishable downstream.
//
// What the operator does with the function's output depends on the
// terminal:
//   * routing terminals (filter survivors, k-way partition with σ± as
//     its k = 1 case): the port cursors become the emitted batches'
//     selections — same routing, ordering and dense-flag discipline as
//     the interpreter.
//   * hash-join probe: (position, build row) pairs against the
//     interpreted HashJoinOp's published slot view; this operator
//     materializes the concatenated rows and emits them to the join's
//     consumers. A full pair cursor resumes at a row boundary with a
//     doubled buffer.
//   * group-by accumulate (with or without a fused probe): hits against
//     the owning worker's group-map snapshot fold into per-worker SoA
//     accumulators inside the emitted loop; missed rows come back as
//     (position, multiplicity) pairs and are folded here after
//     inserting their groups (phase B) — fold order per group equals
//     the interpreter's row order, so results are bit-identical.
//     FinishPort absorbs the SoA partials into the worker AggregatorSets
//     before end-of-stream reaches the group-by.
#ifndef BYPASSDB_CODEGEN_COMPILED_PIPELINE_H_
#define BYPASSDB_CODEGEN_COMPILED_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/codegen_engine.h"
#include "codegen/lower_chain.h"
#include "exec/phys_op.h"

namespace bypass {

class HashJoinOp;
class HashGroupByOp;

class CompiledPipelineOp : public UnaryPhysOp {
 public:
  /// `slot` is the async compile handle (from CodegenEngine::Submit),
  /// `chain` the lowered shape the artifact implements, `head` the first
  /// operator of the interpreted chain — the fallback entry point; the
  /// chain's terminal keeps its consumer edges, so fallback batches and
  /// end-of-stream reach the same consumers this operator emits to.
  /// Breaker terminals pass the fused breakers: `join` for probe
  /// terminals, `group` for accumulate terminals (both for the fully
  /// fused shape); routing terminals pass nullptr for both.
  CompiledPipelineOp(CompiledFnSlotPtr slot, LoweredChain chain,
                     PhysOp* head, HashJoinOp* join, HashGroupByOp* group);

  Status Prepare(ExecContext* ctx) override;
  Status Consume(int in_port, RowBatch batch) override;
  Status FinishPort(int in_port) override;
  std::string Label() const override;

 private:
  /// Per-aggregate SoA accumulator arrays, indexed by dense group entry.
  /// `best` is monomorphized on the argument type (ibest/dbest).
  struct AggSoA {
    std::vector<int64_t> count;
    std::vector<int64_t> isum;
    std::vector<double> dsum;
    std::vector<int64_t> ibest;
    std::vector<double> dbest;
    std::vector<uint8_t> has;
  };

  /// Per-worker run state, padded against false sharing. The output
  /// cursors (one per port for routing terminals, the two pair columns
  /// for breakers) are grow-only across batches.
  struct alignas(64) Scratch {
    std::vector<std::vector<uint32_t>> cursors;
    std::vector<RowBatch> views;  // routing ports 1..k (by port)
    std::vector<uint32_t*> outs;
    std::vector<uint64_t> counts;
    std::vector<CgCol> cols;
    // Breaker state: probe scratch (pass 1 → pass 2) and this worker's
    // SoA aggregate partials.
    std::vector<uint64_t> jhash;
    std::vector<int64_t> jkey;
    std::vector<uint8_t> jvalid;
    std::vector<AggSoA> soa;
    std::vector<void*> acc_ptrs;
  };

  /// Builds the ABI view of `batch`; false when any per-batch guard
  /// fails (no columns attached, slot out of range, column demoted to
  /// mixed mode or type-mismatched) — the caller then falls back.
  bool FillBatch(const RowBatch& batch, Scratch* s, CgBatch* cg);

  /// Breaker per-batch guards: join view published, this worker's group
  /// map still exportable. Fills the ABI views, sizes the probe scratch
  /// and SoA, and rebuilds acc_ptrs. Always true for routing terminals.
  bool PrepareViews(Scratch* s, size_t n, CgJoinView* jv, CgGroupView* gv);

  /// Sizes every output cursor to hold `n` entries and points outs at
  /// them.
  void SizeCursors(Scratch* s, size_t n);

  /// Output protocols of the three terminal families.
  Status Route(RowBatch batch, Scratch& s);
  Status EmitProbePairs(const RowBatch& batch, Scratch& s, CgRunFn run,
                        const CgBatch& cg, const CgJoinView& jv);
  void FoldMisses(Scratch& s, const CgBatch& cg, uint64_t misses);

  /// Ensures every SoA array covers `entries` dense group entries
  /// (zero-filled growth; existing partials are preserved).
  void EnsureSoA(Scratch* s, size_t entries);

  /// Folds `mult` repetitions of the batch value at storage index `rr`
  /// into aggregate `j`'s SoA at entry `idx` — the phase-B mirror of the
  /// emitted fold bodies.
  void FoldInto(Scratch* s, size_t j, uint32_t idx, const CgCol& col,
                uint32_t rr, uint32_t mult);

  /// Absorbs every worker's SoA partials into the group-by's worker
  /// AggregatorSets (MergeCompiledPartial) and clears them; runs once,
  /// from FinishPort, before end-of-stream reaches the group-by's merge.
  void AbsorbSoA();

  CompiledFnSlotPtr slot_;
  LoweredChain chain_;
  PhysOp* head_;
  HashJoinOp* join_;
  HashGroupByOp* group_;
  /// chain_.slots indices of the terminal's key/argument columns
  /// (resolved once in the constructor; -1 = absent/star).
  int jk_col_ = -1;
  int gk_col_ = -1;
  std::vector<int> agg_cols_;
  std::vector<Scratch> scratch_;
};

}  // namespace bypass

#endif  // BYPASSDB_CODEGEN_COMPILED_PIPELINE_H_
