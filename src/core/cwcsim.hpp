// Umbrella header: the CWC simulation-analysis pipeline public API.
#pragma once

#include "core/analysis_stage.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/events.hpp"
#include "core/messages.hpp"
#include "core/result.hpp"
#include "core/session.hpp"
