// Transaction identifier types (Section 5 of the paper).
#ifndef GPHTAP_TXN_XID_H_
#define GPHTAP_TXN_XID_H_

#include <cstdint>

namespace gphtap {

/// Segment-local transaction id, assigned by each segment's native mechanism.
using LocalXid = uint32_t;

/// Distributed transaction id, a monotonically increasing integer assigned by
/// the coordinator. Uniquely identifies a transaction at the global level.
using Gxid = uint64_t;

inline constexpr LocalXid kInvalidLocalXid = 0;
inline constexpr Gxid kInvalidGxid = 0;

/// Lifecycle states recorded in the commit log.
enum class TxnState : uint8_t {
  kInProgress = 0,
  kPrepared = 1,   // 2PC: PREPARE durable, awaiting the coordinator's decision
  kCommitted = 2,
  kAborted = 3,
};

}  // namespace gphtap

#endif  // GPHTAP_TXN_XID_H_
