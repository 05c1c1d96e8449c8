/**
 * @file
 * Cycle-accurate weight-stationary systolic array with PE-granularity
 * power gating (§4.1, Figs. 11-13).
 *
 * Dataflow: weights are preloaded (one PE per [k][n]); activations
 * stream in from the left with one cycle of skew per row; partial sums
 * flow downward and exit at the bottom of each column.
 *
 * Power gating follows the paper's mechanism exactly:
 *  - row_on/col_on come from zero-weight detection plus prefix-OR
 *    (sa_gating.h); gated rows/columns are fully OFF.
 *  - within powered rows/columns a PE idles in W_on mode (only the
 *    weight register powered) until the PE_on signal, which
 *    propagates diagonally one hop per cycle alongside the data,
 *    wakes it one cycle before its first operand arrives (Fig. 13).
 *
 * The simulator checks that gating never corrupts results: a PE that
 * is not ON cannot compute, so any timing bug shows up as a wrong
 * matmul in the tests rather than as silently optimistic energy.
 */

#ifndef REGATE_SA_SYSTOLIC_ARRAY_H
#define REGATE_SA_SYSTOLIC_ARRAY_H

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "sa/sa_gating.h"

namespace regate {
namespace sa {

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;
    Matrix(int rows, int cols, double fill = 0.0);

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    double &at(int r, int c) { return data_[index(r, c)]; }
    double at(int r, int c) const { return data_[index(r, c)]; }

  private:
    std::size_t index(int r, int c) const;

    int rows_ = 0;
    int cols_ = 0;
    std::vector<double> data_;
};

/** Reference matmul for validation: [M,K] x [K,N] -> [M,N]. */
Matrix matmulReference(const Matrix &x, const Matrix &w);

/** Per-run statistics of the PE grid. */
struct SaRunStats
{
    Cycles computeCycles = 0;   ///< Cycles of the streaming phase.
    Cycles weightLoadCycles = 0;///< Cycles spent loading weights.

    /** PE-cycles by power state during the compute phase. */
    std::uint64_t peOnCycles = 0;
    std::uint64_t peWOnCycles = 0;
    std::uint64_t peOffCycles = 0;

    std::uint64_t macs = 0;     ///< MACs actually performed.

    /** Rows/columns left powered by the zero-weight logic. */
    int rowsOn = 0;
    int colsOn = 0;

    /** Achieved / peak FLOPs during the run (Fig. 5 metric). */
    double spatialUtilization() const;

    /** Total PE-cycles (width^2 x computeCycles). */
    std::uint64_t totalPeCycles() const;
};

/** Cycle-accurate systolic array. */
class SystolicArray
{
  public:
    /**
     * @param width          Array is width x width PEs.
     * @param gating_enabled PE-level power gating (ReGate-HW); when
     *                       false every PE is ON for the whole run
     *                       (baseline / ReGate-Base behaviour).
     */
    SystolicArray(int width, bool gating_enabled);

    /**
     * Load a [K, N] weight tile (K <= width rows, N <= width cols).
     * The tile is padded to the top-left-origin placement the gating
     * logic expects: K pads toward the top, N toward the right.
     * Takes K cycles (one row pushed per cycle).
     */
    void loadWeights(const Matrix &w);

    /**
     * Stream a [M, K] activation tile through the array and return
     * the [M, N] result. Also accumulates SaRunStats.
     */
    Matrix run(const Matrix &x);

    const SaRunStats &stats() const { return stats_; }

    int width() const { return width_; }

    /** row_on/col_on bitmaps from the last loadWeights. */
    const Bitmap &rowOn() const { return rowOn_; }
    const Bitmap &colOn() const { return colOn_; }

  private:
    struct Token
    {
        double value = 0.0;
        int m = -1;          ///< Output-row tag; -1 = invalid.
        bool valid() const { return m >= 0; }
    };

    int width_;
    bool gating_;
    int loadedK_ = 0;        ///< Weight rows loaded (actual K).
    int loadedN_ = 0;        ///< Weight cols loaded (actual N).
    int firstActiveRow_ = 0; ///< width - K (top padding).

    std::vector<double> weights_;     ///< width x width.
    Bitmap rowOn_;
    Bitmap colOn_;
    SaRunStats stats_;
};

}  // namespace sa
}  // namespace regate

#endif  // REGATE_SA_SYSTOLIC_ARRAY_H
