// NIMBUS_ALWAYS_INLINE: inline a small per-event helper at every call site,
// whatever the optimizer's size heuristics say.  Reserved for the helpers
// the drain loop and the ACK path call once per event; the function must be
// defined in every translation unit that calls it (in its header, or in
// the one .cc file that is its only caller).
#pragma once

#define NIMBUS_ALWAYS_INLINE inline __attribute__((always_inline))
