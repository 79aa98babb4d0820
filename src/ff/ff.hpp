// Umbrella header for the ff pattern framework (FastFlow-style substrate).
//
// Layering, mirroring the paper's Fig. 1:
//   building blocks : spsc_queue, uspsc_queue, token, channel, node, network
//   core patterns   : pipeline, farm (+feedback), stencil_reduce
//   high-level      : parallel_for (for_each, for_each_chunk, reduce)
#pragma once

#include "ff/channel.hpp"
#include "ff/farm.hpp"
#include "ff/network.hpp"
#include "ff/node.hpp"
#include "ff/parallel_for.hpp"
#include "ff/pattern.hpp"
#include "ff/pipeline.hpp"
#include "ff/spsc_queue.hpp"
#include "ff/stencil_reduce.hpp"
#include "ff/token.hpp"
#include "ff/uspsc_queue.hpp"
