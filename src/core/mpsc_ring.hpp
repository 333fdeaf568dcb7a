// MpscRing is BasicScq<kMulti, kSingle>, defined in core/scq.hpp with the
// rest of the SCQ ring family. This header only forwards there; the
// perfbench/ tree includes it by this name.
#pragma once

#include "core/scq.hpp"
