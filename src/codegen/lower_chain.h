// Chain lowering: turns a scan-rooted compiled chain — zero or more σ
// filters followed by exactly one terminal (DESIGN.md §12) — into one
// self-contained C++ translation unit exporting bypass_cg_run. The
// terminals are: filter survivors to port 0, the k-way tagged partition
// (σ± is its k = 1 case), a hash-join probe, a group-by accumulate, and
// a probe feeding an accumulate. The emitted function replicates the
// interpreter's semantics exactly:
//
//   * SQL 3VL encoded as int {0 = false, 1 = true, 2 = unknown}, with
//     AND/OR short-circuiting per row exactly like TriAnd/TriOr folds
//     (OR exits on the first TRUE disjunct — the tag discipline of the
//     k-way partition).
//   * Comparisons monomorphized on the columns' declared types: int64 ×
//     int64 compares exactly; mixed numeric widens to double through the
//     same ordering function as Value::CompareSlow (NaN compares equal
//     to everything); strings via memcmp-then-length (std::string::
//     compare); bool × bool as 0/1 ints; any other pairing — and any
//     NULL operand — yields unknown.
//   * LIKE mirrors LikeMatch's iterative '%'-backtracking byte for byte.
//   * Arithmetic (+,-,*) preserves int64 on int64 × int64 and widens to
//     double otherwise, NULL propagating. Division is deliberately NOT
//     lowered: its divide-by-zero ExecutionError has no channel out of
//     emitted code, so chains containing '/' stay interpreted — emitted
//     code is error-free by construction.
//
// Anything outside this matrix — subqueries, correlated outer
// references, builtin functions, mixed-mode (untyped) columns — makes
// the predicate unsupported; the install pass (codegen/install.h) then
// cuts the chain before that operator and leaves the rest interpreted.
#ifndef BYPASSDB_CODEGEN_LOWER_CHAIN_H_
#define BYPASSDB_CODEGEN_LOWER_CHAIN_H_

#include <string>
#include <vector>

#include "expr/agg.h"
#include "expr/expr.h"
#include "types/schema.h"

namespace bypass {

/// One input column the emitted code reads: the table-schema slot and
/// its declared type (the runtime guard re-checks both per batch).
struct CgSlotUse {
  int slot;
  DataType type;
};

/// What ends a compiled chain. The routing terminals write selections to
/// output ports; the breaker terminals fuse a pipeline breaker's inner
/// loop and return (position, value) pairs instead.
enum class ChainTerminalKind {
  kFilter,       ///< survivors of the σ prefix → port 0
  kPartitionK,   ///< first-TRUE disjunct i → port i, rest → port k (k=1: σ±)
  kJoinProbe,    ///< hash-join probe loop → (position, build row) pairs
  kGroupBy,      ///< group-by accumulate loop over the int64 fast path
  kJoinGroupBy,  ///< probe feeding accumulate, fully fused
};

/// True for the terminals that fuse a hash-join probe and/or a group-by
/// accumulate (they run against the interpreter's hash structures).
inline bool IsBreakerTerminal(ChainTerminalKind kind) {
  return kind == ChainTerminalKind::kJoinProbe ||
         kind == ChainTerminalKind::kGroupBy ||
         kind == ChainTerminalKind::kJoinGroupBy;
}

/// One aggregate the emitted accumulate loop folds in-register. The
/// argument is a scan-slot column load (already remapped through any
/// projection copy layers by the install pass); only int64/double
/// arguments — and argument-less COUNT(*) — lower.
struct CgAggFold {
  AggFunc func = AggFunc::kCount;
  bool star = false;  ///< COUNT(*): no argument column
  int slot = -1;      ///< scan slot of the argument (ignored when star)
  DataType type = DataType::kInt64;
};

/// The terminal of a chain: its kind plus what that kind needs — the
/// k rank-ordered routing predicates of a partition, the
/// scan slots of the int64 probe/group keys and the folded aggregates
/// for the breaker terminals.
struct ChainTerminal {
  ChainTerminalKind kind = ChainTerminalKind::kFilter;
  std::vector<const Expr*> predicates;
  int probe_slot = -1;
  int group_slot = -1;
  std::vector<CgAggFold> aggs;
};

struct LoweredChain {
  /// The complete emitted translation unit (no #includes; exports
  /// bypass_cg_abi and bypass_cg_run).
  std::string source;
  /// Columns in CgBatch::cols order.
  std::vector<CgSlotUse> slots;
  /// Output ports of the compiled operator: 1 for filter survivors and
  /// the breakers, k + 1 for the k-way partition.
  int num_out_ports = 1;
  /// Echo of the terminal the source implements.
  ChainTerminal terminal;
  /// Short human-readable shape note for operator labels.
  std::string summary;
};

/// Lowers `filters` (σ predicates in chain order) and `terminal` against
/// the scanned table's schema into one TU exporting bypass_cg_run (the
/// CgRunFn ABI of codegen_engine.h). A kFilter terminal needs at least
/// one filter; the breaker terminals may have none (a bare scan feeding
/// the breaker). False when a predicate or the terminal is outside the
/// supported matrix.
bool LowerChain(const std::vector<const Expr*>& filters,
                const ChainTerminal& terminal, const Schema& schema,
                LoweredChain* out);

/// Dry run of one predicate: true when it would lower. The install pass
/// uses this to find the longest compilable filter prefix of a chain and
/// to decide whether a partition can terminate it.
bool PredicateSupported(const Expr& predicate, const Schema& schema);

}  // namespace bypass

#endif  // BYPASSDB_CODEGEN_LOWER_CHAIN_H_
