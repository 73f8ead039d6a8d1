#include "cluster/instance.hh"

#include <sstream>

#include "sim/logging.hh"

namespace infless::cluster {

std::string
InstanceConfig::str() const
{
    std::ostringstream os;
    os << *this;
    return os.str();
}

std::ostream &
operator<<(std::ostream &os, const InstanceConfig &c)
{
    return os << "(b=" << c.batchSize
              << ", cpu=" << c.resources.cpuMillicores
              << "mc, gpu=" << c.resources.gpuSmPercent << "%)";
}

const char *
instanceStateName(InstanceState s)
{
    switch (s) {
      case InstanceState::ColdStarting:
        return "cold-starting";
      case InstanceState::Idle:
        return "idle";
      case InstanceState::Busy:
        return "busy";
      case InstanceState::Reaped:
        return "reaped";
    }
    return "?";
}

Instance::Instance(InstanceId id, InstanceConfig config, ServerId server,
                   sim::Tick created, bool cold)
    : id_(id), config_(std::move(config)), server_(server), cold_(cold),
      created_(created), lastActive_(created)
{
    sim::simAssert(config_.batchSize >= 1, "batchSize must be >= 1");
}

void
Instance::becomeWarm(sim::Tick now)
{
    sim::simAssert(state_ == InstanceState::ColdStarting,
                   "becomeWarm from state ", instanceStateName(state_));
    state_ = InstanceState::Idle;
    lastActive_ = now;
}

void
Instance::startBatch(int batch_fill)
{
    sim::simAssert(state_ == InstanceState::Idle,
                   "startBatch from state ", instanceStateName(state_));
    sim::simAssert(batch_fill >= 1 && batch_fill <= config_.batchSize,
                   "batch fill ", batch_fill, " out of range for ", config_);
    state_ = InstanceState::Busy;
    ++batchesExecuted_;
    requestsServed_ += batch_fill;
}

void
Instance::finishBatch(sim::Tick now)
{
    sim::simAssert(state_ == InstanceState::Busy,
                   "finishBatch from state ", instanceStateName(state_));
    state_ = InstanceState::Idle;
    lastActive_ = now;
}

void
Instance::reap()
{
    sim::simAssert(state_ == InstanceState::Idle ||
                       state_ == InstanceState::ColdStarting,
                   "reap from state ", instanceStateName(state_));
    state_ = InstanceState::Reaped;
}

void
Instance::crash()
{
    sim::simAssert(state_ != InstanceState::Reaped,
                   "crash of an already-reaped instance ", id_);
    state_ = InstanceState::Reaped;
}

} // namespace infless::cluster
