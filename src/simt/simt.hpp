// Umbrella header for the SIMT (GPU) execution-model library.
#pragma once

#include "simt/device.hpp"
#include "simt/executor.hpp"
#include "simt/gpu_model.hpp"
