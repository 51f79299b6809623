// Piggyback message wire format (paper §4.1, §5.1, §6).
//
// FTC appends state updates to the packets themselves. A piggyback message
// is a list of piggyback logs (one per transaction still traveling toward
// its tail) plus a list of commit vectors (one per middlebox whose tail
// announces what has been f+1-replicated). The message lives in the
// packet's tailroom, after the wire bytes, terminated by a fixed footer so
// a replica can find it without tracking offsets — mirroring the paper's
// in-place append ("there is no need to actually strip and reattach it").
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "core/dep_vector.hpp"
#include "runtime/small_vector.hpp"
#include "state/txn.hpp"
#include "packet/packet.hpp"
#include "state/state_store.hpp"

namespace sfc::ftc {

using MboxId = std::uint32_t;

/// --- Wire constants (shared by the serializer and the zero-copy view). ---
///
/// Footer: u32 body_len, u32 magic — fixed-size and last, so a receiver
/// finds the message without tracking offsets.
/// Body:   u16 log_count, u16 commit_count, u16 num_partitions, u16 reserved
///   logs:    u32 mbox; u64 mask; u64 seq[popcount(mask)];
///            u16 write_count; writes: u64 key, u16 len|0x8000(erase), bytes
///   commits: u32 mbox; u64 seq[num_partitions]
inline constexpr std::uint32_t kFooterMagic = 0x46544331;  // "FTC1"
inline constexpr std::size_t kFooterSize = 8;
inline constexpr std::size_t kWireHeaderSize = 8;
inline constexpr std::uint16_t kWireEraseFlag = 0x8000;
inline constexpr std::uint16_t kWireLenMask = 0x7fff;

/// State updates of one packet transaction at one middlebox, tagged with
/// the dependency vector that orders it (paper Fig. 3).
struct PiggybackLog {
  MboxId mbox{0};
  DepVector dep{};
  state::WriteSet writes;

  friend bool operator==(const PiggybackLog&, const PiggybackLog&) = default;
};

/// A tail's announcement: everything up to `max` has been replicated f+1
/// times for middlebox `mbox` (paper §5.1's commit vector).
struct CommitVector {
  MboxId mbox{0};
  MaxVector max{};

  friend bool operator==(const CommitVector&, const CommitVector&) = default;
};

struct PiggybackMessage {
  rt::SmallVector<PiggybackLog, 2> logs;
  rt::SmallVector<CommitVector, 2> commits;

  bool empty() const noexcept { return logs.empty() && commits.empty(); }

  /// Appends/overwrites the commit vector for a middlebox (latest wins).
  void set_commit(MboxId mbox, const MaxVector& max);

  /// Returns the commit vector for @p mbox, if present.
  const MaxVector* find_commit(MboxId mbox) const noexcept;

  /// Removes all logs belonging to @p mbox (what a tail does).
  void strip_logs_of(MboxId mbox);

  /// Removes the commit vector of @p mbox (what the head does once the
  /// vector has traveled the full ring).
  void strip_commit_of(MboxId mbox);

  /// Merges another message into this one: logs are concatenated in order,
  /// commit vectors merged componentwise. The data path merges feedback
  /// records on the wire (PiggybackView::merge); this stays as the
  /// reference the tests check that splice against.
  void merge(PiggybackMessage&& other);

  friend bool operator==(const PiggybackMessage&, const PiggybackMessage&) =
      default;
};

/// Serialized size of @p msg with @p num_partitions-wide commit vectors
/// (including the footer).
std::size_t serialized_size(const PiggybackMessage& msg,
                            std::size_t num_partitions) noexcept;

/// Serializes @p msg (header through footer) into @p out, which must hold
/// serialized_size(msg, num_partitions) bytes.
void serialize_message(const PiggybackMessage& msg, std::size_t num_partitions,
                       std::uint8_t* out) noexcept;

/// serialized_size() and serialize_message() for the message holding
/// @p logs and @p commits — parts of a larger message, which the feedback
/// channel splits when no packet could carry it whole.
std::size_t serialized_size(std::span<const PiggybackLog> logs,
                            std::span<const CommitVector> commits,
                            std::size_t num_partitions) noexcept;
void serialize_message(std::span<const PiggybackLog> logs,
                       std::span<const CommitVector> commits,
                       std::size_t num_partitions, std::uint8_t* out) noexcept;

/// Appends @p msg to the packet's tail. Returns false (packet untouched)
/// if the tailroom cannot hold it — the caller treats this as the
/// "piggyback message too large for the frame" condition the paper
/// resolves with jumbo frames.
bool append_message(pkt::Packet& p, const PiggybackMessage& msg,
                    std::size_t num_partitions);

/// True if the packet carries a piggyback message footer.
bool has_message(const pkt::Packet& p) noexcept;

/// Parses and removes the piggyback message from the packet tail.
/// Returns std::nullopt if no valid message is attached.
std::optional<PiggybackMessage> extract_message(pkt::Packet& p);

/// --- Out-of-band log serialization (retransmissions, state fetch). ---
void serialize_logs(std::span<const PiggybackLog> logs,
                    std::vector<std::uint8_t>& out);
bool deserialize_logs(std::span<const std::uint8_t>& in,
                      std::vector<PiggybackLog>& out);

/// --- Zero-copy in-place processing (paper §5.1: "there is no need to
/// actually strip and reattach it"). ---

/// One log's header decoded off the wire, with cursors into the packet
/// tail for its write set. Valid only while the packet bytes it points
/// into stay alive and unmoved.
struct WireLog {
  MboxId mbox{0};
  DepVector dep{};
  const std::uint8_t* writes{nullptr};  ///< First serialized write.
  std::uint16_t write_count{0};
  std::uint32_t wire_size{0};  ///< Full size of this log record on the wire.
};

/// Calls fn(const state::WireUpdate&) for each write of @p log, values as
/// spans over the wire bytes. Bounds were validated when the owning view
/// was opened.
template <typename Fn>
void for_each_wire_write(const WireLog& log, Fn&& fn) {
  const std::uint8_t* p = log.writes;
  for (std::uint16_t i = 0; i < log.write_count; ++i) {
    std::uint64_t key = 0;
    std::uint16_t len_flags = 0;
    std::memcpy(&key, p, 8);
    std::memcpy(&len_flags, p + 8, 2);
    p += 10;
    const std::size_t len = len_flags & kWireLenMask;
    fn(state::WireUpdate{key, {p, len}, (len_flags & kWireEraseFlag) != 0});
    p += len;
  }
}

/// Copies one wire log into an owning PiggybackLog (history recording and
/// fallback paths, where the log must outlive the packet).
PiggybackLog materialize_log(const WireLog& log);

/// Zero-copy cursor over the piggyback message serialized in a packet's
/// tail. open() validates the whole message once — footer, header, every
/// log and write bound, the commit-region width — and records per-log
/// offsets, so iteration and mutation afterwards are bounds-check-free.
/// Mutators keep the packet bytes, the header/footer fields and the
/// internal offsets consistent; bytes of logs that are merely forwarded
/// are never touched. The view holds a pointer into the packet: it must
/// not outlive it, and any other tail mutation invalidates it.
class PiggybackView {
 public:
  PiggybackView() = default;

  /// Opens the message at the packet tail. The view is invalid (!ok())
  /// when no message is attached or the tail is malformed; open() never
  /// modifies the packet.
  static PiggybackView open(pkt::Packet& p) noexcept;

  /// Appends an empty message (header + footer) to a packet without one
  /// and opens it. Invalid view when the tailroom is short.
  static PiggybackView create(pkt::Packet& p, std::size_t num_partitions);

  /// Attaches a serialized message (header through footer, as copy_logs()
  /// or serialize_message() write it) as the tail of a packet without one —
  /// one memcpy — and opens it. Invalid view, packet untouched, when the
  /// tailroom is short or the bytes are not a valid message.
  static PiggybackView attach(pkt::Packet& p,
                              std::span<const std::uint8_t> msg);

  bool ok() const noexcept { return p_ != nullptr; }
  std::size_t log_count() const noexcept { return log_off_.size(); }
  std::size_t commit_count() const noexcept { return commit_count_; }
  std::size_t num_partitions() const noexcept { return num_partitions_; }
  /// Bytes the message occupies at the packet tail (body + footer).
  std::size_t tail_size() const noexcept { return body_len_ + kFooterSize; }
  /// Packet bytes preceding the message (the wire frame a parser sees).
  std::size_t wire_size() const noexcept { return p_->size() - tail_size(); }

  /// Decodes log @p i's header; its writes stay on the wire.
  WireLog log(std::size_t i) const noexcept;
  bool has_logs_of(MboxId mbox) const noexcept;

  /// Decodes commit vector @p i into @p out (partitions beyond
  /// num_partitions() zero-filled, as extract_message does) and returns
  /// its mbox.
  MboxId commit(std::size_t i, MaxVector& out) const noexcept;

  /// Overwrites in place (fixed width per num_partitions) or appends the
  /// commit vector for @p mbox. Returns false — packet unmodified — when
  /// an append would not fit the tailroom.
  bool set_commit(MboxId mbox, const MaxVector& max);

  /// Serializes @p log at the end of the log region, shifting the commit
  /// region and footer up. Returns false (packet unmodified) when the
  /// tailroom cannot hold it.
  bool append_log(const PiggybackLog& log);

  /// Merges @p max componentwise into the commit vector of @p mbox, or
  /// appends it when absent. Returns false — packet unmodified — when an
  /// append would not fit the tailroom.
  bool merge_commit(MboxId mbox, const MaxVector& max);

  /// Merges a serialized message into this one in place, with
  /// PiggybackMessage::merge semantics and neither side materialized: its
  /// log records are appended as raw bytes after ours, its commit vectors
  /// merged componentwise (merge_commit). Returns false — packet unmodified
  /// — when @p msg is malformed, carries commit vectors of another width,
  /// or does not fit the tailroom.
  bool merge(std::span<const std::uint8_t> msg);

  /// Size of the message holding logs [first, last) of this one and no
  /// commit vectors (what copy_logs(first, last, out) writes).
  std::size_t logs_message_size(std::size_t first,
                                std::size_t last) const noexcept {
    return kWireHeaderSize + log_start(last) - log_start(first) + kFooterSize;
  }

  /// Writes the message holding logs [first, last) of this one and no
  /// commit vectors — header, their raw log records, footer — to @p out,
  /// which must hold logs_message_size(first, last) bytes.
  void copy_logs(std::size_t first, std::size_t last,
                 std::uint8_t* out) const noexcept;

  /// Removes every log of @p mbox with one compacting pass over the log
  /// region; logs that stay are moved at most once and a message without
  /// logs of @p mbox is untouched. Returns the number removed.
  std::size_t strip_logs_of(MboxId mbox);

  /// Removes the whole message from the packet (buffer hand-off: packets
  /// leave the chain bare). The view is invalid afterwards.
  void strip_tail() noexcept;

 private:
  std::uint8_t* body() const noexcept { return p_->data() + body_off_; }
  std::size_t commit_entry_size() const noexcept {
    return 4 + 8 * static_cast<std::size_t>(num_partitions_);
  }
  /// Body offset of log @p i, or of the commit region for i == log_count().
  std::uint32_t log_start(std::size_t i) const noexcept {
    return i < log_off_.size() ? log_off_[i] : logs_end_;
  }
  /// Rewrites the header counts and the (possibly moved) footer.
  void sync_header_footer() noexcept;
  /// Byte offset of the commit entry of @p mbox in the body, or 0.
  std::size_t find_commit_entry(MboxId mbox) const noexcept;

  pkt::Packet* p_{nullptr};
  std::uint32_t body_off_{0};   ///< Offset of the body from packet data().
  std::uint32_t body_len_{0};
  std::uint32_t logs_end_{0};   ///< Body offset where the commit region starts.
  std::uint16_t commit_count_{0};
  std::uint16_t num_partitions_{0};
  rt::SmallVector<std::uint32_t, 8> log_off_;  ///< Per-log body offsets.
};

/// Frame length a parser should see for @p p: packet size minus a
/// syntactically plausible piggyback tail (footer peek only, no full
/// validation — parse_packet() stays inside the returned length either
/// way). Returns p.size() when no tail is attached.
std::size_t wire_size_hint(const pkt::Packet& p) noexcept;

}  // namespace sfc::ftc
