// MpscRing is BasicScq<kSingle>, defined in core/scq.hpp with the
// rest of the SCQ ring family. This header only forwards there; only the
// perfbench/ tree still includes it by this name.
#pragma once

#include "core/scq.hpp"
