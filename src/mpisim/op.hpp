// Reduction operators for MiniMPI collective reductions.
#pragma once

#include "mpisim/datatype.hpp"

namespace mpisect::mpisim {

enum class ReduceOp {
  Sum,
  Prod,
  Max,
  Min,
  LAnd,   ///< logical and
  LOr,    ///< logical or
  BAnd,   ///< bitwise and (integer types only)
  BOr,    ///< bitwise or (integer types only)
  MaxLoc, ///< DoubleInt only
  MinLoc, ///< DoubleInt only
};

/// inout[i] = op(in[i], inout[i]) for count elements. Throws MpiError on an
/// op/type combination MPI itself forbids (e.g. BAnd on Double).
void apply_op(ReduceOp op, Datatype type, const void* in, void* inout,
              int count);

/// True if the op/type combination is valid.
[[nodiscard]] bool op_valid(ReduceOp op, Datatype type) noexcept;

}  // namespace mpisect::mpisim
