#include "mpisim/op.hpp"

#include <algorithm>

#include "mpisim/error.hpp"

namespace mpisect::mpisim {
namespace {

template <typename T>
void reduce_arith(ReduceOp op, const void* in_v, void* inout_v, int count) {
  const T* in = static_cast<const T*>(in_v);
  T* inout = static_cast<T*>(inout_v);
  switch (op) {
    case ReduceOp::Sum:
      for (int i = 0; i < count; ++i) inout[i] = static_cast<T>(in[i] + inout[i]);
      return;
    case ReduceOp::Prod:
      for (int i = 0; i < count; ++i) inout[i] = static_cast<T>(in[i] * inout[i]);
      return;
    case ReduceOp::Max:
      for (int i = 0; i < count; ++i) inout[i] = std::max(in[i], inout[i]);
      return;
    case ReduceOp::Min:
      for (int i = 0; i < count; ++i) inout[i] = std::min(in[i], inout[i]);
      return;
    case ReduceOp::LAnd:
      for (int i = 0; i < count; ++i) {
        inout[i] = static_cast<T>((in[i] != T{}) && (inout[i] != T{}));
      }
      return;
    case ReduceOp::LOr:
      for (int i = 0; i < count; ++i) {
        inout[i] = static_cast<T>((in[i] != T{}) || (inout[i] != T{}));
      }
      return;
    default:
      throw MpiError(Err::Op, "operator not valid for arithmetic type");
  }
}

template <typename T>
void reduce_bitwise(ReduceOp op, const void* in_v, void* inout_v, int count) {
  const T* in = static_cast<const T*>(in_v);
  T* inout = static_cast<T*>(inout_v);
  switch (op) {
    case ReduceOp::BAnd:
      for (int i = 0; i < count; ++i) inout[i] = static_cast<T>(in[i] & inout[i]);
      return;
    case ReduceOp::BOr:
      for (int i = 0; i < count; ++i) inout[i] = static_cast<T>(in[i] | inout[i]);
      return;
    default:
      reduce_arith<T>(op, in_v, inout_v, count);
      return;
  }
}

void reduce_loc(ReduceOp op, const void* in_v, void* inout_v, int count) {
  const auto* in = static_cast<const DoubleInt*>(in_v);
  auto* inout = static_cast<DoubleInt*>(inout_v);
  for (int i = 0; i < count; ++i) {
    const bool take_in =
        op == ReduceOp::MaxLoc
            ? (in[i].value > inout[i].value ||
               (in[i].value == inout[i].value && in[i].index < inout[i].index))
            : (in[i].value < inout[i].value ||
               (in[i].value == inout[i].value && in[i].index < inout[i].index));
    if (take_in) inout[i] = in[i];
  }
}

}  // namespace

bool op_valid(ReduceOp op, Datatype type) noexcept {
  const bool loc_op = op == ReduceOp::MaxLoc || op == ReduceOp::MinLoc;
  if (type == Datatype::DoubleInt) return loc_op;
  if (loc_op) return false;
  const bool bitwise = op == ReduceOp::BAnd || op == ReduceOp::BOr;
  const bool integral = type == Datatype::Byte || type == Datatype::Char ||
                        type == Datatype::Int || type == Datatype::Long ||
                        type == Datatype::UnsignedLong;
  if (bitwise) return integral;
  if (type == Datatype::Byte) return bitwise;  // MPI_BYTE: bitwise only
  return true;
}

void apply_op(ReduceOp op, Datatype type, const void* in, void* inout,
              int count) {
  require(count >= 0, Err::Count, "negative reduction count");
  require(op_valid(op, type), Err::Op, "op/datatype combination not allowed");
  switch (type) {
    case Datatype::Byte:
      reduce_bitwise<unsigned char>(op, in, inout, count);
      return;
    case Datatype::Char:
      reduce_bitwise<char>(op, in, inout, count);
      return;
    case Datatype::Int:
      reduce_bitwise<int>(op, in, inout, count);
      return;
    case Datatype::Long:
      reduce_bitwise<long>(op, in, inout, count);
      return;
    case Datatype::UnsignedLong:
      reduce_bitwise<unsigned long>(op, in, inout, count);
      return;
    case Datatype::Float:
      reduce_arith<float>(op, in, inout, count);
      return;
    case Datatype::Double:
      reduce_arith<double>(op, in, inout, count);
      return;
    case Datatype::DoubleInt:
      reduce_loc(op, in, inout, count);
      return;
  }
  throw MpiError(Err::Type, "unknown datatype");
}

}  // namespace mpisect::mpisim
