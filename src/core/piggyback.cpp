#include "core/piggyback.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace sfc::ftc {

namespace {

// Wire layout constants (kFooterMagic etc.) live in the header, shared
// with the zero-copy PiggybackView.
constexpr std::uint16_t kEraseFlag = kWireEraseFlag;
constexpr std::uint16_t kLenMask = kWireLenMask;

class Writer {
 public:
  explicit Writer(std::uint8_t* out) : p_(out) {}

  template <typename T>
  void pod(T v) noexcept {
    std::memcpy(p_, &v, sizeof(T));
    p_ += sizeof(T);
  }

  void raw(const void* data, std::size_t len) noexcept {
    std::memcpy(p_, data, len);
    p_ += len;
  }

  std::uint8_t* pos() const noexcept { return p_; }

 private:
  std::uint8_t* p_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len)
      : p_(data), end_(data + len) {}

  template <typename T>
  bool pod(T& out) noexcept {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(&out, p_, sizeof(T));
    p_ += sizeof(T);
    return true;
  }

  const std::uint8_t* raw(std::size_t len) noexcept {
    if (remaining() < len) return nullptr;
    const std::uint8_t* out = p_;
    p_ += len;
    return out;
  }

  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

std::size_t log_size(const PiggybackLog& log) noexcept {
  std::size_t n = 4 + 8 +
                  8 * static_cast<std::size_t>(std::popcount(log.dep.mask)) + 2;
  for (const auto& w : log.writes) n += 8 + 2 + w.value.size();
  return n;
}

/// Serializes one log record (shared by append_message and
/// PiggybackView::append_log so both paths are byte-identical).
void write_log(Writer& w, const PiggybackLog& log) {
  w.pod<std::uint32_t>(log.mbox);
  w.pod<std::uint64_t>(log.dep.mask);
  for (std::size_t i = 0; i < state::kMaxPartitions; ++i) {
    if (log.dep.touches(i)) w.pod<std::uint64_t>(log.dep.seq[i]);
  }
  w.pod<std::uint16_t>(static_cast<std::uint16_t>(log.writes.size()));
  for (const auto& wr : log.writes) {
    w.pod<std::uint64_t>(wr.key);
    const auto len = static_cast<std::uint16_t>(wr.value.size());
    w.pod<std::uint16_t>(wr.erase ? static_cast<std::uint16_t>(len | kEraseFlag)
                                  : len);
    w.raw(wr.value.data(), wr.value.size());
  }
}

}  // namespace

void PiggybackMessage::set_commit(MboxId mbox, const MaxVector& max) {
  for (auto& c : commits) {
    if (c.mbox == mbox) {
      c.max = max;
      return;
    }
  }
  commits.push_back(CommitVector{mbox, max});
}

const MaxVector* PiggybackMessage::find_commit(MboxId mbox) const noexcept {
  for (const auto& c : commits) {
    if (c.mbox == mbox) return &c.max;
  }
  return nullptr;
}

void PiggybackMessage::strip_logs_of(MboxId mbox) {
  logs.remove_if([mbox](const PiggybackLog& l) { return l.mbox == mbox; });
}

void PiggybackMessage::strip_commit_of(MboxId mbox) {
  commits.remove_if([mbox](const CommitVector& c) { return c.mbox == mbox; });
}

void PiggybackMessage::merge(PiggybackMessage&& other) {
  logs.append_move(std::move(other.logs));
  for (auto& c : other.commits) {
    if (const MaxVector* mine = find_commit(c.mbox)) {
      MaxVector merged = *mine;
      merged.merge(c.max);
      set_commit(c.mbox, merged);
    } else {
      commits.push_back(std::move(c));
    }
  }
}

std::size_t serialized_size(const PiggybackMessage& msg,
                            std::size_t num_partitions) noexcept {
  return serialized_size({msg.logs.data(), msg.logs.size()},
                         {msg.commits.data(), msg.commits.size()},
                         num_partitions);
}

void serialize_message(const PiggybackMessage& msg, std::size_t num_partitions,
                       std::uint8_t* out) noexcept {
  serialize_message({msg.logs.data(), msg.logs.size()},
                    {msg.commits.data(), msg.commits.size()}, num_partitions,
                    out);
}

std::size_t serialized_size(std::span<const PiggybackLog> logs,
                            std::span<const CommitVector> commits,
                            std::size_t num_partitions) noexcept {
  std::size_t n = 8;  // Header.
  for (const auto& log : logs) n += log_size(log);
  n += commits.size() * (4 + 8 * num_partitions);
  return n + kFooterSize;
}

void serialize_message(std::span<const PiggybackLog> logs,
                       std::span<const CommitVector> commits,
                       std::size_t num_partitions, std::uint8_t* out) noexcept {
  const std::size_t total = serialized_size(logs, commits, num_partitions);
  Writer w(out);
  w.pod<std::uint16_t>(static_cast<std::uint16_t>(logs.size()));
  w.pod<std::uint16_t>(static_cast<std::uint16_t>(commits.size()));
  w.pod<std::uint16_t>(static_cast<std::uint16_t>(num_partitions));
  w.pod<std::uint16_t>(0);

  for (const auto& log : logs) write_log(w, log);
  for (const auto& c : commits) {
    w.pod<std::uint32_t>(c.mbox);
    for (std::size_t i = 0; i < num_partitions; ++i) {
      w.pod<std::uint64_t>(c.max.seq[i]);
    }
  }
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(total - kFooterSize));
  w.pod<std::uint32_t>(kFooterMagic);
}

bool append_message(pkt::Packet& p, const PiggybackMessage& msg,
                    std::size_t num_partitions) {
  const std::size_t total = serialized_size(msg, num_partitions);
  if (p.tailroom() < total) return false;
  serialize_message(msg, num_partitions, p.push_back(total));
  return true;
}

bool has_message(const pkt::Packet& p) noexcept {
  if (p.size() < kFooterSize) return false;
  std::uint32_t magic = 0;
  std::memcpy(&magic, p.data() + p.size() - 4, 4);
  return magic == kFooterMagic;
}

std::optional<PiggybackMessage> extract_message(pkt::Packet& p) {
  if (!has_message(p)) return std::nullopt;
  std::uint32_t body_len = 0;
  std::memcpy(&body_len, p.data() + p.size() - kFooterSize, 4);
  if (p.size() < kFooterSize + body_len) return std::nullopt;

  Reader r(p.data() + p.size() - kFooterSize - body_len, body_len);
  std::uint16_t log_count = 0, commit_count = 0, num_partitions = 0, reserved = 0;
  if (!r.pod(log_count) || !r.pod(commit_count) || !r.pod(num_partitions) ||
      !r.pod(reserved) || num_partitions > state::kMaxPartitions) {
    return std::nullopt;
  }

  PiggybackMessage msg;
  for (std::uint16_t i = 0; i < log_count; ++i) {
    PiggybackLog log;
    if (!r.pod(log.mbox) || !r.pod(log.dep.mask)) return std::nullopt;
    for (std::size_t pidx = 0; pidx < state::kMaxPartitions; ++pidx) {
      if (log.dep.touches(pidx) && !r.pod(log.dep.seq[pidx])) {
        return std::nullopt;
      }
    }
    std::uint16_t write_count = 0;
    if (!r.pod(write_count)) return std::nullopt;
    for (std::uint16_t wi = 0; wi < write_count; ++wi) {
      state::StateUpdate u;
      std::uint16_t len_flags = 0;
      if (!r.pod(u.key) || !r.pod(len_flags)) return std::nullopt;
      u.erase = (len_flags & kEraseFlag) != 0;
      const std::size_t len = len_flags & kLenMask;
      const std::uint8_t* bytes = r.raw(len);
      if (bytes == nullptr) return std::nullopt;
      u.value.assign({bytes, len});
      log.writes.push_back(std::move(u));
    }
    msg.logs.push_back(std::move(log));
  }
  for (std::uint16_t i = 0; i < commit_count; ++i) {
    CommitVector c;
    if (!r.pod(c.mbox)) return std::nullopt;
    for (std::size_t pidx = 0; pidx < num_partitions; ++pidx) {
      if (!r.pod(c.max.seq[pidx])) return std::nullopt;
    }
    msg.commits.push_back(std::move(c));
  }
  if (r.remaining() != 0) return std::nullopt;

  p.trim_back(kFooterSize + body_len);
  return msg;
}

namespace {

void append_pod_vec(std::vector<std::uint8_t>& out, const void* data,
                    std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + len);
}

template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  append_pod_vec(out, &v, sizeof(v));
}

template <typename T>
bool take(std::span<const std::uint8_t>& in, T& out) {
  if (in.size() < sizeof(T)) return false;
  std::memcpy(&out, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return true;
}

}  // namespace

void serialize_logs(std::span<const PiggybackLog> logs,
                    std::vector<std::uint8_t>& out) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(logs.size()));
  for (const auto& log : logs) {
    put<std::uint32_t>(out, log.mbox);
    put<std::uint64_t>(out, log.dep.mask);
    for (std::size_t p = 0; p < state::kMaxPartitions; ++p) {
      if (log.dep.touches(p)) put<std::uint64_t>(out, log.dep.seq[p]);
    }
    put<std::uint32_t>(out, static_cast<std::uint32_t>(log.writes.size()));
    for (const auto& w : log.writes) {
      put<std::uint64_t>(out, w.key);
      put<std::uint8_t>(out, w.erase ? 1 : 0);
      put<std::uint32_t>(out, static_cast<std::uint32_t>(w.value.size()));
      append_pod_vec(out, w.value.data(), w.value.size());
    }
  }
}

bool deserialize_logs(std::span<const std::uint8_t>& in,
                      std::vector<PiggybackLog>& out) {
  std::uint32_t count = 0;
  if (!take(in, count)) return false;
  out.reserve(out.size() + count);
  for (std::uint32_t i = 0; i < count; ++i) {
    PiggybackLog log;
    if (!take(in, log.mbox) || !take(in, log.dep.mask)) return false;
    for (std::size_t p = 0; p < state::kMaxPartitions; ++p) {
      if (log.dep.touches(p) && !take(in, log.dep.seq[p])) return false;
    }
    std::uint32_t writes = 0;
    if (!take(in, writes)) return false;
    for (std::uint32_t wi = 0; wi < writes; ++wi) {
      state::StateUpdate u;
      std::uint8_t erase = 0;
      std::uint32_t len = 0;
      if (!take(in, u.key) || !take(in, erase) || !take(in, len) ||
          in.size() < len) {
        return false;
      }
      u.erase = erase != 0;
      u.value.assign({in.data(), len});
      in = in.subspan(len);
      log.writes.push_back(std::move(u));
    }
    out.push_back(std::move(log));
  }
  return true;
}

PiggybackLog materialize_log(const WireLog& wire) {
  PiggybackLog log;
  log.mbox = wire.mbox;
  log.dep = wire.dep;
  for_each_wire_write(wire, [&](const state::WireUpdate& u) {
    state::StateUpdate s;
    s.key = u.key;
    s.erase = u.erase;
    s.value.assign(u.value);
    log.writes.push_back(std::move(s));
  });
  return log;
}

namespace {

/// Where the parts of a validated serialized message sit.
struct Layout {
  std::uint32_t body_len{0};
  std::uint32_t logs_end{0};  ///< Body offset where the commit region starts.
  std::uint16_t commit_count{0};
  std::uint16_t num_partitions{0};
};

/// Validates the message whose footer ends at data + size — footer, header,
/// every log and write bound, the commit-region width — and records each
/// log's body offset. One walk; callers are bounds-check-free afterwards.
bool scan_message(const std::uint8_t* data, std::size_t size, Layout& out,
                  rt::SmallVector<std::uint32_t, 8>& log_off) noexcept {
  if (size < kFooterSize) return false;
  std::uint32_t magic = 0;
  std::memcpy(&magic, data + size - 4, 4);
  if (magic != kFooterMagic) return false;
  std::uint32_t body_len = 0;
  std::memcpy(&body_len, data + size - kFooterSize, 4);
  if (size < kFooterSize + body_len || body_len < kWireHeaderSize) return false;

  const std::uint8_t* b = data + size - kFooterSize - body_len;
  std::uint16_t log_count = 0, commit_count = 0, num_partitions = 0;
  std::memcpy(&log_count, b, 2);
  std::memcpy(&commit_count, b + 2, 2);
  std::memcpy(&num_partitions, b + 4, 2);
  if (num_partitions > state::kMaxPartitions) return false;

  std::size_t off = kWireHeaderSize;
  for (std::uint16_t i = 0; i < log_count; ++i) {
    if (body_len - off < 12) return false;
    std::uint64_t mask = 0;
    std::memcpy(&mask, b + off + 4, 8);
    // Bits beyond the partition range would desynchronize the sequence
    // array length between writer and reader: reject as malformed.
    if ((mask >> state::kMaxPartitions) != 0) return false;
    std::size_t need = 12 + 8 * static_cast<std::size_t>(std::popcount(mask));
    if (body_len - off < need + 2) return false;
    std::uint16_t write_count = 0;
    std::memcpy(&write_count, b + off + need, 2);
    need += 2;
    for (std::uint16_t wi = 0; wi < write_count; ++wi) {
      if (body_len - off < need + 10) return false;
      std::uint16_t len_flags = 0;
      std::memcpy(&len_flags, b + off + need + 8, 2);
      need += 10 + (len_flags & kLenMask);
      if (body_len - off < need) return false;
    }
    log_off.push_back(static_cast<std::uint32_t>(off));
    off += need;
  }
  const std::size_t commit_bytes =
      static_cast<std::size_t>(commit_count) * (4 + 8 * num_partitions);
  if (body_len - off != commit_bytes) return false;

  out.body_len = body_len;
  out.logs_end = static_cast<std::uint32_t>(off);
  out.commit_count = commit_count;
  out.num_partitions = num_partitions;
  return true;
}

}  // namespace

PiggybackView PiggybackView::open(pkt::Packet& p) noexcept {
  PiggybackView v;
  Layout l;
  if (!scan_message(p.data(), p.size(), l, v.log_off_)) {
    v.log_off_.clear();
    return v;
  }
  v.p_ = &p;
  v.body_off_ = static_cast<std::uint32_t>(p.size() - kFooterSize - l.body_len);
  v.body_len_ = l.body_len;
  v.logs_end_ = l.logs_end;
  v.commit_count_ = l.commit_count;
  v.num_partitions_ = l.num_partitions;
  return v;
}

PiggybackView PiggybackView::attach(pkt::Packet& p,
                                    std::span<const std::uint8_t> msg) {
  if (p.tailroom() < msg.size()) return PiggybackView{};
  std::memcpy(p.push_back(msg.size()), msg.data(), msg.size());
  PiggybackView v = open(p);
  if (!v.ok() || v.tail_size() != msg.size()) {
    p.trim_back(msg.size());
    return PiggybackView{};
  }
  return v;
}

PiggybackView PiggybackView::create(pkt::Packet& p, std::size_t num_partitions) {
  if (!append_message(p, PiggybackMessage{}, num_partitions)) {
    return PiggybackView{};
  }
  return open(p);
}

WireLog PiggybackView::log(std::size_t i) const noexcept {
  const std::uint8_t* b = body() + log_off_[i];
  WireLog out;
  std::memcpy(&out.mbox, b, 4);
  std::memcpy(&out.dep.mask, b + 4, 8);
  const std::uint8_t* cursor = b + 12;
  for (std::uint64_t m = out.dep.mask; m != 0; m &= m - 1) {
    const auto pidx = static_cast<std::size_t>(std::countr_zero(m));
    std::memcpy(&out.dep.seq[pidx], cursor, 8);
    cursor += 8;
  }
  std::memcpy(&out.write_count, cursor, 2);
  out.writes = cursor + 2;
  const std::uint32_t end =
      i + 1 < log_off_.size() ? log_off_[i + 1] : logs_end_;
  out.wire_size = end - log_off_[i];
  return out;
}

bool PiggybackView::has_logs_of(MboxId mbox) const noexcept {
  for (const std::uint32_t off : log_off_) {
    MboxId m = 0;
    std::memcpy(&m, body() + off, 4);
    if (m == mbox) return true;
  }
  return false;
}

MboxId PiggybackView::commit(std::size_t i, MaxVector& out) const noexcept {
  const std::uint8_t* entry = body() + logs_end_ + i * commit_entry_size();
  MboxId mbox = 0;
  std::memcpy(&mbox, entry, 4);
  out = MaxVector{};
  std::memcpy(out.seq.data(), entry + 4, 8 * num_partitions_);
  return mbox;
}

std::size_t PiggybackView::find_commit_entry(MboxId mbox) const noexcept {
  std::size_t off = logs_end_;
  for (std::uint16_t i = 0; i < commit_count_; ++i, off += commit_entry_size()) {
    MboxId m = 0;
    std::memcpy(&m, body() + off, 4);
    if (m == mbox) return off;
  }
  return 0;
}

bool PiggybackView::set_commit(MboxId mbox, const MaxVector& max) {
  if (const std::size_t off = find_commit_entry(mbox); off != 0) {
    // Fixed-width overwrite: the dominant case once a tail has attached
    // its vector before (latest wins, exactly like the legacy
    // PiggybackMessage::set_commit).
    std::memcpy(body() + off + 4, max.seq.data(), 8 * num_partitions_);
    return true;
  }
  const std::size_t need = commit_entry_size();
  if (p_->tailroom() < need) return false;
  p_->push_back(need);
  // Shift the footer up and write the new commit where it was. The two
  // regions cannot overlap (a commit entry is at least 12 bytes).
  std::uint8_t* b = body();
  std::memmove(b + body_len_ + need, b + body_len_, kFooterSize);
  std::memcpy(b + body_len_, &mbox, 4);
  std::memcpy(b + body_len_ + 4, max.seq.data(), 8 * num_partitions_);
  ++commit_count_;
  body_len_ += static_cast<std::uint32_t>(need);
  sync_header_footer();
  return true;
}

bool PiggybackView::merge_commit(MboxId mbox, const MaxVector& max) {
  const std::size_t off = find_commit_entry(mbox);
  if (off == 0) return set_commit(mbox, max);
  std::uint8_t* seq = body() + off + 4;
  for (std::size_t i = 0; i < num_partitions_; ++i) {
    std::uint64_t mine = 0;
    std::memcpy(&mine, seq + 8 * i, 8);
    if (max.seq[i] > mine) std::memcpy(seq + 8 * i, &max.seq[i], 8);
  }
  return true;
}

bool PiggybackView::merge(std::span<const std::uint8_t> msg) {
  Layout m;
  rt::SmallVector<std::uint32_t, 8> offs;
  if (!scan_message(msg.data(), msg.size(), m, offs) ||
      m.body_len + kFooterSize != msg.size() ||
      (m.commit_count != 0 && m.num_partitions != num_partitions_) ||
      log_off_.size() + offs.size() > 0xffff) {
    return false;
  }
  // Check the whole growth up front so a short tailroom leaves the packet
  // untouched: the raw log bytes plus one entry per commit vector we lack.
  const std::uint8_t* mb = msg.data();
  const std::size_t log_bytes = m.logs_end - kWireHeaderSize;
  std::size_t need = log_bytes;
  for (std::uint16_t i = 0; i < m.commit_count; ++i) {
    MboxId mbox = 0;
    std::memcpy(&mbox, mb + m.logs_end + i * commit_entry_size(), 4);
    if (find_commit_entry(mbox) == 0) need += commit_entry_size();
  }
  if (p_->tailroom() < need) return false;

  if (log_bytes != 0) {
    p_->push_back(log_bytes);
    std::uint8_t* commits_begin = body() + logs_end_;
    std::memmove(commits_begin + log_bytes, commits_begin,
                 (body_len_ - logs_end_) + kFooterSize);
    std::memcpy(commits_begin, mb + kWireHeaderSize, log_bytes);
    for (const std::uint32_t off : offs) {
      log_off_.push_back(logs_end_ + off - static_cast<std::uint32_t>(kWireHeaderSize));
    }
    logs_end_ += static_cast<std::uint32_t>(log_bytes);
    body_len_ += static_cast<std::uint32_t>(log_bytes);
    sync_header_footer();
  }
  for (std::uint16_t i = 0; i < m.commit_count; ++i) {
    const std::uint8_t* entry = mb + m.logs_end + i * commit_entry_size();
    MboxId mbox = 0;
    std::memcpy(&mbox, entry, 4);
    MaxVector max;
    std::memcpy(max.seq.data(), entry + 4, 8 * num_partitions_);
    merge_commit(mbox, max);  // Fits: the growth was checked above.
  }
  return true;
}

void PiggybackView::copy_logs(std::size_t first, std::size_t last,
                              std::uint8_t* out) const noexcept {
  const std::uint32_t begin = log_start(first);
  const auto body_len = static_cast<std::uint32_t>(
      kWireHeaderSize + log_start(last) - begin);
  std::memcpy(out, body(), kWireHeaderSize);  // num_partitions, reserved.
  const auto log_count = static_cast<std::uint16_t>(last - first);
  const std::uint16_t no_commits = 0;
  std::memcpy(out, &log_count, 2);
  std::memcpy(out + 2, &no_commits, 2);
  std::memcpy(out + kWireHeaderSize, body() + begin,
              body_len - kWireHeaderSize);
  std::memcpy(out + body_len, &body_len, 4);
  std::memcpy(out + body_len + 4, &kFooterMagic, 4);
}

bool PiggybackView::append_log(const PiggybackLog& log) {
  const std::size_t need = log_size(log);
  if (p_->tailroom() < need) return false;
  p_->push_back(need);
  std::uint8_t* commits_begin = body() + logs_end_;
  std::memmove(commits_begin + need, commits_begin,
               (body_len_ - logs_end_) + kFooterSize);
  Writer w(commits_begin);
  write_log(w, log);
  log_off_.push_back(logs_end_);
  logs_end_ += static_cast<std::uint32_t>(need);
  body_len_ += static_cast<std::uint32_t>(need);
  sync_header_footer();
  return true;
}

std::size_t PiggybackView::strip_logs_of(MboxId mbox) {
  std::uint8_t* b = body();
  std::uint32_t w = kWireHeaderSize;  // Compaction write cursor.
  std::size_t removed = 0;
  rt::SmallVector<std::uint32_t, 8> kept;
  for (std::size_t i = 0; i < log_off_.size(); ++i) {
    const std::uint32_t off = log_off_[i];
    const std::uint32_t end = i + 1 < log_off_.size() ? log_off_[i + 1] : logs_end_;
    MboxId m = 0;
    std::memcpy(&m, b + off, 4);
    if (m == mbox) {
      ++removed;
      continue;
    }
    if (w != off) std::memmove(b + w, b + off, end - off);
    kept.push_back(w);
    w += end - off;
  }
  if (removed == 0) return 0;  // Forwarded-unchanged bytes never touched.
  std::memmove(b + w, b + logs_end_, (body_len_ - logs_end_) + kFooterSize);
  const std::uint32_t delta = logs_end_ - w;
  log_off_ = std::move(kept);
  logs_end_ = w;
  body_len_ -= delta;
  p_->trim_back(delta);
  sync_header_footer();
  return removed;
}

void PiggybackView::strip_tail() noexcept {
  p_->trim_back(tail_size());
  p_ = nullptr;
}

void PiggybackView::sync_header_footer() noexcept {
  std::uint8_t* b = body();
  const auto log_count = static_cast<std::uint16_t>(log_off_.size());
  std::memcpy(b, &log_count, 2);
  std::memcpy(b + 2, &commit_count_, 2);
  std::memcpy(b + body_len_, &body_len_, 4);
  std::memcpy(b + body_len_ + 4, &kFooterMagic, 4);
}

std::size_t wire_size_hint(const pkt::Packet& p) noexcept {
  if (!has_message(p)) return p.size();
  std::uint32_t body_len = 0;
  std::memcpy(&body_len, p.data() + p.size() - kFooterSize, 4);
  if (p.size() < kFooterSize + body_len) return p.size();
  return p.size() - kFooterSize - body_len;
}

}  // namespace sfc::ftc
