// Kept only because perfbench/src/workload.cpp includes it for
// detect_races_trace; new code includes core/replay.hpp directly.
#pragma once

#include "core/replay.hpp"
