// Kept because perfbench/driver/common.cpp empties the calling thread's
// NSEC3 memo through `zone::Nsec3ChainMemo::instance().clear()` before every
// timed set-up. That memo is crypto::Nsec3DigestMemo, which the signer and
// the validator both hash through; new code names it directly.
#pragma once

#include "crypto/nsec3_memo.hpp"

namespace zh::zone {

using Nsec3ChainMemo = crypto::Nsec3DigestMemo;

}  // namespace zh::zone
