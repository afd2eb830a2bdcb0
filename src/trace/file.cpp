#include "trace/file.hpp"

#include <fstream>
#include <iterator>

#include "obs/counters.hpp"
#include "obs/spans.hpp"
#include "trace/event_wire.hpp"

namespace mpisect::trace {

namespace {

void encode_machine(ByteWriter& w, const mpisim::MachineModel& m) {
  w.str(m.name);
  w.varint(static_cast<std::uint64_t>(m.cores_per_node));
  w.varint(static_cast<std::uint64_t>(m.nodes));
  w.varint(static_cast<std::uint64_t>(m.hw_threads_per_core));
  w.f64(m.flops_per_core);
  for (const double y : m.smt_yield) w.f64(y);
  w.f64(m.compute_noise_sigma);
  const auto& n = m.net;
  w.f64(n.intra_node.latency);
  w.f64(n.intra_node.bandwidth);
  w.f64(n.inter_node.latency);
  w.f64(n.inter_node.bandwidth);
  w.f64(n.send_overhead);
  w.f64(n.recv_overhead);
  w.varint(n.eager_threshold);
  w.varint(static_cast<std::uint64_t>(n.cores_per_node));
  w.u8(static_cast<std::uint8_t>(n.jitter.kind));
  w.f64(n.jitter.rel_sigma);
  w.f64(n.jitter.add_sigma);
  w.f64(n.jitter.spike_prob);
  w.f64(n.jitter.spike_mean);
  w.varint(n.seed);
  w.u8(n.hierarchical_nbc ? 1 : 0);  // v5
  const auto& o = m.omp;
  w.f64(o.fork_join_base);
  w.f64(o.fork_join_per_thread);
  w.f64(o.barrier_log_cost);
  w.f64(o.static_imbalance);
  w.f64(o.dynamic_chunk_cost);
  w.f64(o.oversubscription_penalty);
}

mpisim::MachineModel decode_machine(ByteReader& r, std::uint32_t version) {
  mpisim::MachineModel m;
  m.name = r.str();
  m.cores_per_node = static_cast<int>(r.varint());
  m.nodes = static_cast<int>(r.varint());
  m.hw_threads_per_core = static_cast<int>(r.varint());
  m.flops_per_core = r.f64();
  for (double& y : m.smt_yield) y = r.f64();
  m.compute_noise_sigma = r.f64();
  auto& n = m.net;
  n.intra_node.latency = r.f64();
  n.intra_node.bandwidth = r.f64();
  n.inter_node.latency = r.f64();
  n.inter_node.bandwidth = r.f64();
  n.send_overhead = r.f64();
  n.recv_overhead = r.f64();
  n.eager_threshold = static_cast<std::size_t>(r.varint());
  n.cores_per_node = static_cast<int>(r.varint());
  const std::uint8_t jk = r.u8();
  if (jk > 2) throw TraceError("corrupt trace: bad jitter kind");
  n.jitter.kind = static_cast<mpisim::JitterModel::Kind>(jk);
  n.jitter.rel_sigma = r.f64();
  n.jitter.add_sigma = r.f64();
  n.jitter.spike_prob = r.f64();
  n.jitter.spike_mean = r.f64();
  n.seed = r.varint();
  // v5: hierarchical NBC flag; absent in older traces, which were charged
  // with the flat formula the unset default reproduces.
  if (version >= 5) n.hierarchical_nbc = r.u8() != 0;
  auto& o = m.omp;
  o.fork_join_base = r.f64();
  o.fork_join_per_thread = r.f64();
  o.barrier_log_cost = r.f64();
  o.static_imbalance = r.f64();
  o.dynamic_chunk_cost = r.f64();
  o.oversubscription_penalty = r.f64();
  return m;
}

}  // namespace

void encode_event(ByteWriter& w, const Event& ev, std::uint64_t& prev_op) {
  w.u8(static_cast<std::uint8_t>(ev.kind) |
       (ev.has_time ? std::uint8_t{0x80} : std::uint8_t{0}));
  if (ev.has_time) w.f64(ev.t_before);
  switch (ev.kind) {
    case EventKind::SendPost:
      w.varint(static_cast<std::uint64_t>(ev.comm));
      w.varint(static_cast<std::uint64_t>(ev.peer));
      w.zigzag(ev.tag);
      w.varint(ev.bytes);
      w.varint(ev.seq);
      w.varint(ev.op - prev_op);
      prev_op = ev.op;
      break;
    case EventKind::SendWait:
      w.varint(ev.op);  // backref
      break;
    case EventKind::RecvPost:
      w.varint(static_cast<std::uint64_t>(ev.comm));
      w.zigzag(ev.peer);
      w.varint(ev.seq);
      w.zigzag(ev.post_src);  // v3: posted envelope
      w.zigzag(ev.tag);
      break;
    case EventKind::RecvWait:
      w.varint(ev.seq);  // backref
      w.varint(ev.op - prev_op);
      prev_op = ev.op;
      break;
    case EventKind::Probe:
      w.varint(static_cast<std::uint64_t>(ev.comm));
      w.varint(static_cast<std::uint64_t>(ev.peer));
      w.varint(ev.seq);
      w.zigzag(ev.post_src);  // v3: posted envelope
      w.zigzag(ev.tag);
      break;
    case EventKind::CollBegin:
      w.varint(static_cast<std::uint64_t>(ev.comm));
      w.varint(ev.label);  // MpiCall
      w.zigzag(ev.peer);   // root or -1
      w.varint(ev.bytes);
      w.varint(ev.op - prev_op);
      prev_op = ev.op;
      break;
    case EventKind::CollEnd:
      break;
    case EventKind::SectionEnter:
    case EventKind::SectionExit:
      w.varint(static_cast<std::uint64_t>(ev.comm));
      w.varint(ev.label);
      break;
    case EventKind::CommSync:
      w.varint(static_cast<std::uint64_t>(ev.comm));
      w.varint(static_cast<std::uint64_t>(ev.peer));  // members
      w.varint(ev.seq);                               // rounds
      break;
    case EventKind::Pcontrol:
      w.zigzag(ev.peer);  // level
      w.varint(ev.label);
      break;
    case EventKind::Finalize:
      break;
    case EventKind::NbcPost:
      w.varint(static_cast<std::uint64_t>(ev.comm));
      w.varint(ev.label);  // MpiCall
      w.varint(static_cast<std::uint64_t>(ev.peer));  // members (quorum)
      w.varint(ev.bytes);
      w.varint(ev.seq);  // nbc generation
      w.varint(ev.op - prev_op);
      prev_op = ev.op;
      break;
    case EventKind::NbcComplete:
      w.varint(static_cast<std::uint64_t>(ev.comm));
      w.varint(ev.seq);  // nbc generation
      break;
  }
}

Event decode_event(ByteReader& r, std::uint64_t& prev_op,
                   std::uint32_t version) {
  const std::uint8_t kb = r.u8();
  const std::uint8_t raw_kind = kb & 0x7F;
  if (raw_kind >= kEventKindCount) {
    throw TraceError("corrupt trace: unknown event kind " +
                     std::to_string(raw_kind));
  }
  Event ev;
  ev.kind = static_cast<EventKind>(raw_kind);
  ev.has_time = (kb & 0x80) != 0;
  if (ev.has_time) ev.t_before = r.f64();
  switch (ev.kind) {
    case EventKind::SendPost:
      ev.comm = static_cast<int>(r.varint());
      ev.peer = static_cast<int>(r.varint());
      ev.tag = static_cast<int>(r.zigzag());
      ev.bytes = r.varint();
      ev.seq = r.varint();
      ev.op = prev_op + r.varint();
      prev_op = ev.op;
      break;
    case EventKind::SendWait:
      ev.op = r.varint();
      break;
    case EventKind::RecvPost:
      ev.comm = static_cast<int>(r.varint());
      ev.peer = static_cast<int>(r.zigzag());
      ev.seq = r.varint();
      if (version >= 3) {
        ev.post_src = static_cast<int>(r.zigzag());
        ev.tag = static_cast<int>(r.zigzag());
      }
      break;
    case EventKind::RecvWait:
      ev.seq = r.varint();
      ev.op = prev_op + r.varint();
      prev_op = ev.op;
      break;
    case EventKind::Probe:
      ev.comm = static_cast<int>(r.varint());
      ev.peer = static_cast<int>(r.varint());
      ev.seq = r.varint();
      if (version >= 3) {
        ev.post_src = static_cast<int>(r.zigzag());
        ev.tag = static_cast<int>(r.zigzag());
      }
      break;
    case EventKind::CollBegin:
      ev.comm = static_cast<int>(r.varint());
      ev.label = static_cast<std::uint32_t>(r.varint());
      ev.peer = static_cast<int>(r.zigzag());
      ev.bytes = r.varint();
      ev.op = prev_op + r.varint();
      prev_op = ev.op;
      break;
    case EventKind::CollEnd:
      break;
    case EventKind::SectionEnter:
    case EventKind::SectionExit:
      ev.comm = static_cast<int>(r.varint());
      ev.label = static_cast<std::uint32_t>(r.varint());
      break;
    case EventKind::CommSync:
      ev.comm = static_cast<int>(r.varint());
      ev.peer = static_cast<int>(r.varint());
      ev.seq = r.varint();
      break;
    case EventKind::Pcontrol:
      ev.peer = static_cast<int>(r.zigzag());
      ev.label = static_cast<std::uint32_t>(r.varint());
      break;
    case EventKind::Finalize:
      break;
    case EventKind::NbcPost:
      ev.comm = static_cast<int>(r.varint());
      ev.label = static_cast<std::uint32_t>(r.varint());
      ev.peer = static_cast<int>(r.varint());
      ev.bytes = r.varint();
      ev.seq = r.varint();
      ev.op = prev_op + r.varint();
      prev_op = ev.op;
      break;
    case EventKind::NbcComplete:
      ev.comm = static_cast<int>(r.varint());
      ev.seq = r.varint();
      break;
  }
  return ev;
}

namespace {

/// Everything that precedes the rank streams: magic, version, header,
/// machine block, label table, rank count. Shared verbatim by the
/// whole-buffer encode() and the streaming writer so the two byte streams
/// cannot diverge.
void encode_preamble(ByteWriter& w, const TraceHeader& header,
                     const std::vector<std::string>& labels,
                     std::uint64_t nranks) {
  w.u32le(kTraceMagic);
  w.u32le(kTraceVersion);
  w.str(header.app);
  w.varint(header.seed);
  w.u8(header.scatter_algo);
  w.u8(header.gather_algo);
  w.f64(header.start_skew_sigma);
  w.varint(static_cast<std::uint64_t>(header.nranks));
  w.f64(header.telemetry_dt);
  w.u8(static_cast<std::uint8_t>(header.progress.mode));
  w.f64(header.progress.entry_overhead);
  w.f64(header.progress.thread_latency);
  w.f64(header.progress.core_tax);
  encode_machine(w, header.machine);
  w.varint(labels.size());
  for (const auto& l : labels) w.str(l);
  w.varint(nranks);
}

/// One rank's stream, self-delimiting (the encoding never looks across
/// rank boundaries — prev_op delta state resets per rank — which is what
/// makes rank-at-a-time streaming byte-identical to the one-shot encode).
void encode_rank_stream(ByteWriter& w, const RankStream& rs) {
  w.varint(static_cast<std::uint64_t>(rs.rank));
  w.f64(rs.t0);
  w.f64(rs.t_final);
  w.varint(rs.events.size());
  std::uint64_t prev_op = 0;
  for (const auto& ev : rs.events) encode_event(w, ev, prev_op);
  w.varint(rs.totals.size());
  for (const auto& t : rs.totals) {
    w.varint(static_cast<std::uint64_t>(t.comm));
    w.varint(t.label);
    w.varint(t.count);
    w.f64(t.inclusive);
  }
}

}  // namespace

std::vector<std::uint8_t> TraceFile::encode() const {
  const obs::Span obs_span("trace.encode");
  ByteWriter w;
  encode_preamble(w, header, labels, ranks.size());
  for (const auto& rs : ranks) encode_rank_stream(w, rs);
  std::vector<std::uint8_t> bytes = w.take();
  // Writer accounting: the whole encode buffers in RAM before any flush.
  // Streaming paths (TraceStreamWriter) buffer one rank at a time instead;
  // the gap between the two high-water marks is the streaming win.
  auto& oc = obs::counters();
  oc.trace_encoded_bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
  obs::update_max(oc.trace_buffered_bytes_hwm, bytes.size());
  return bytes;
}

TraceStreamWriter::TraceStreamWriter(const std::string& path,
                                     const TraceHeader& header,
                                     const std::vector<std::string>& labels,
                                     int nranks)
    : path_(path), expected_ranks_(nranks) {
  out_.open(path, std::ios::binary);
  if (!out_) throw TraceError("cannot open " + path + " for writing");
  ByteWriter w;
  encode_preamble(w, header, labels, static_cast<std::uint64_t>(nranks));
  write_chunk(w.take());
}

TraceStreamWriter::~TraceStreamWriter() = default;

void TraceStreamWriter::write_rank(const RankStream& rs) {
  if (closed_) throw TraceError("trace stream writer already closed");
  if (written_ >= expected_ranks_) {
    throw TraceError("trace stream writer: more ranks than declared");
  }
  ByteWriter w;
  encode_rank_stream(w, rs);
  write_chunk(w.take());
  ++written_;
}

void TraceStreamWriter::close() {
  if (closed_) return;
  closed_ = true;
  if (written_ != expected_ranks_) {
    throw TraceError("trace stream writer: wrote " +
                     std::to_string(written_) + " of " +
                     std::to_string(expected_ranks_) + " declared ranks");
  }
  out_.flush();
  if (!out_) throw TraceError("short write to " + path_);
  obs::counters().trace_flushes.fetch_add(1, std::memory_order_relaxed);
}

void TraceStreamWriter::write_chunk(const std::vector<std::uint8_t>& bytes) {
  // Per-chunk accounting: the buffered high-water mark is one chunk (the
  // preamble or one rank stream), not the whole file — the point of
  // streaming at 65k ranks.
  auto& oc = obs::counters();
  oc.trace_encoded_bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
  obs::update_max(oc.trace_buffered_bytes_hwm, bytes.size());
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!out_) throw TraceError("short write to " + path_);
}

TraceFile TraceFile::decode(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint32_t magic = r.u32le();
  if (magic == 0x5A53504D) {  // "MPSZ": the compressed container
    throw TraceError(
        "trace is a compressed .mpstz container; decode it through "
        "codec::decompress (or codec::load_trace)");
  }
  if (magic != kTraceMagic) {
    // A byte-swapped magic means the file itself is fine but was written
    // with the opposite byte order (foreign/corrupted tooling).
    const std::uint32_t swapped = ((magic & 0xFF) << 24) |
                                  ((magic & 0xFF00) << 8) |
                                  ((magic >> 8) & 0xFF00) | (magic >> 24);
    if (swapped == kTraceMagic) {
      throw TraceError("trace has opposite byte order (foreign writer?)");
    }
    throw TraceError("not an mpisect trace (bad magic)");
  }
  const std::uint32_t version = r.u32le();
  if (version < 1 || version > kTraceVersion) {
    throw TraceError("unsupported trace version " + std::to_string(version) +
                     " (expected <= " + std::to_string(kTraceVersion) + ")");
  }
  TraceFile tf;
  tf.header.app = r.str();
  tf.header.seed = r.varint();
  tf.header.scatter_algo = r.u8();
  tf.header.gather_algo = r.u8();
  tf.header.start_skew_sigma = r.f64();
  tf.header.nranks = static_cast<int>(r.varint());
  if (tf.header.nranks < 0 || tf.header.nranks > (1 << 24)) {
    throw TraceError("corrupt trace: implausible rank count");
  }
  if (version >= 2) tf.header.telemetry_dt = r.f64();
  if (version >= 4) {
    const std::uint8_t pm = r.u8();
    if (pm > 2) throw TraceError("corrupt trace: bad progress mode");
    tf.header.progress.mode = static_cast<mpisim::ProgressMode>(pm);
    tf.header.progress.entry_overhead = r.f64();
    tf.header.progress.thread_latency = r.f64();
    tf.header.progress.core_tax = r.f64();
  }
  tf.header.machine = decode_machine(r, version);
  const std::size_t nlabels = r.count();
  tf.labels.reserve(nlabels);
  for (std::size_t i = 0; i < nlabels; ++i) tf.labels.push_back(r.str());
  const std::size_t nranks = r.count();
  for (std::size_t i = 0; i < nranks; ++i) {
    RankStream rs;
    rs.rank = static_cast<int>(r.varint());
    rs.t0 = r.f64();
    rs.t_final = r.f64();
    const std::size_t nev = r.count();
    rs.events.reserve(nev);
    std::uint64_t prev_op = 0;
    for (std::size_t e = 0; e < nev; ++e) {
      rs.events.push_back(decode_event(r, prev_op, version));
    }
    const std::size_t ntot = r.count();
    for (std::size_t t = 0; t < ntot; ++t) {
      SectionTotal st;
      st.comm = static_cast<int>(r.varint());
      st.label = static_cast<std::uint32_t>(r.varint());
      st.count = r.varint();
      st.inclusive = r.f64();
      rs.totals.push_back(st);
    }
    tf.ranks.push_back(std::move(rs));
  }
  if (r.remaining() != 0) {
    throw TraceError("corrupt trace: " + std::to_string(r.remaining()) +
                     " trailing byte(s)");
  }
  return tf;
}

void TraceFile::save(const std::string& path) const {
  const obs::Span obs_span("trace.save");
  // Stream rank by rank: at no point does the whole file buffer in RAM.
  // Byte-identical to writing encode() wholesale (same helpers, in order).
  TraceStreamWriter w(path, header, labels, static_cast<int>(ranks.size()));
  for (const auto& rs : ranks) w.write_rank(rs);
  w.close();
}

TraceFile TraceFile::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceError("cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return decode(bytes);
}

std::uint64_t TraceFile::total_events() const noexcept {
  std::uint64_t n = 0;
  for (const auto& rs : ranks) n += rs.events.size();
  return n;
}

}  // namespace mpisect::trace
