#include "mpisim/hooks.hpp"

namespace mpisect::mpisim {

const char* mpi_call_name(MpiCall c) noexcept {
  switch (c) {
    case MpiCall::Send: return "MPI_Send";
    case MpiCall::Recv: return "MPI_Recv";
    case MpiCall::Isend: return "MPI_Isend";
    case MpiCall::Irecv: return "MPI_Irecv";
    case MpiCall::Wait: return "MPI_Wait";
    case MpiCall::Sendrecv: return "MPI_Sendrecv";
    case MpiCall::Probe: return "MPI_Probe";
    case MpiCall::Barrier: return "MPI_Barrier";
    case MpiCall::Bcast: return "MPI_Bcast";
    case MpiCall::Reduce: return "MPI_Reduce";
    case MpiCall::Allreduce: return "MPI_Allreduce";
    case MpiCall::Scatter: return "MPI_Scatter";
    case MpiCall::Scatterv: return "MPI_Scatterv";
    case MpiCall::Gather: return "MPI_Gather";
    case MpiCall::Gatherv: return "MPI_Gatherv";
    case MpiCall::Allgather: return "MPI_Allgather";
    case MpiCall::Alltoall: return "MPI_Alltoall";
    case MpiCall::CommSplit: return "MPI_Comm_split";
    case MpiCall::CommDup: return "MPI_Comm_dup";
    case MpiCall::CommFree: return "MPI_Comm_free";
    case MpiCall::Init: return "MPI_Init";
    case MpiCall::Finalize: return "MPI_Finalize";
    case MpiCall::Pcontrol: return "MPI_Pcontrol";
    case MpiCall::Test: return "MPI_Test";
    case MpiCall::Iallreduce: return "MPI_Iallreduce";
    case MpiCall::Ibarrier: return "MPI_Ibarrier";
  }
  return "MPI_(unknown)";
}

bool is_collective(MpiCall c) noexcept {
  switch (c) {
    case MpiCall::Barrier:
    case MpiCall::Bcast:
    case MpiCall::Reduce:
    case MpiCall::Allreduce:
    case MpiCall::Scatter:
    case MpiCall::Scatterv:
    case MpiCall::Gather:
    case MpiCall::Gatherv:
    case MpiCall::Allgather:
    case MpiCall::Alltoall:
    case MpiCall::CommSplit:
    case MpiCall::CommDup:
    case MpiCall::CommFree:  // collective per the MPI standard
    case MpiCall::Iallreduce:
    case MpiCall::Ibarrier:
      return true;
    default:
      return false;
  }
}

bool is_point_to_point(MpiCall c) noexcept {
  switch (c) {
    case MpiCall::Send:
    case MpiCall::Recv:
    case MpiCall::Isend:
    case MpiCall::Irecv:
    case MpiCall::Sendrecv:
    case MpiCall::Probe:
      return true;
    default:
      return false;
  }
}

bool is_blocking(MpiCall c) noexcept {
  switch (c) {
    case MpiCall::Send:      // rendezvous sends block on delivery
    case MpiCall::Recv:
    case MpiCall::Wait:
    case MpiCall::Sendrecv:
    case MpiCall::Probe:
      return true;
    case MpiCall::CommFree:   // local in MiniMPI despite being collective
    case MpiCall::Test:       // completion poll, returns immediately
    case MpiCall::Iallreduce: // nonblocking: the Wait fence blocks, not post
    case MpiCall::Ibarrier:
      return false;
    default:
      return is_collective(c);
  }
}

}  // namespace mpisect::mpisim
