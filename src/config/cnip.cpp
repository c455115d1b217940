#include "config/cnip.h"

#include "core/registers.h"
#include "fault/injector.h"
#include "transaction/message.h"
#include "util/check.h"

namespace aethereal::config {

using transaction::Command;
using transaction::RequestMessage;
using transaction::ResponseError;
using transaction::ResponseMessage;

CnipAgent::CnipAgent(std::string name, core::NiKernel* kernel,
                     shells::SlaveShell* shell)
    : sim::Module(std::move(name)), kernel_(kernel), shell_(shell) {
  AETHEREAL_CHECK(kernel != nullptr && shell != nullptr);
  shell->BindIp(this);
}

bool CnipAgent::IsBootstrapAddress(Word address) const {
  if (cnip_channel_ == kInvalidId) return false;
  const Word base =
      core::regs::ChannelRegAddr(cnip_channel_, core::regs::ChannelReg::kCtrl);
  return address >= base && address < base + core::regs::kRegsPerChannel;
}

void CnipAgent::Evaluate() {
  // One configuration transaction per cycle. No request: the shell wakes
  // us for the next one.
  if (!shell_->HasRequest()) {
    Park();
    return;
  }

  // Config-path faults: judge the request once when it reaches the head.
  // Requests addressing the CNIP channel's own register block are exempt
  // (bootstrap is reliable by construction; see SetFaultInjector).
  if (fault_ != nullptr && !verdict_valid_ &&
      !IsBootstrapAddress(shell_->PeekRequest().address)) {
    Cycle delay = 0;
    const auto verdict =
        fault_->JudgeConfigRequest(kernel_->id(), CycleCount(), &delay);
    verdict_valid_ = true;
    verdict_drop_ = verdict == fault::FaultInjector::ConfigVerdict::kDrop;
    release_at_ = verdict == fault::FaultInjector::ConfigVerdict::kDelay
                      ? CycleCount() + delay
                      : CycleCount();
  }
  if (verdict_valid_) {
    if (verdict_drop_) {
      (void)shell_->PopRequest();  // lost: unexecuted, its ack never sent
      verdict_valid_ = false;
      return;
    }
    if (CycleCount() < release_at_) {
      ParkUntil(release_at_);  // delayed in flight
      return;
    }
  }

  if (!shell_->CanRespond(1)) return;  // leave the request queued
  const RequestMessage req = shell_->PopRequest();
  verdict_valid_ = false;

  ResponseMessage rsp;
  rsp.transaction_id = req.transaction_id;
  rsp.sequence_number = req.sequence_number;

  switch (req.cmd) {
    case Command::kWrite: {
      // One register per message: address is the register offset.
      Status status = OkStatus();
      Word address = req.address;
      for (Word value : req.data) {
        status = kernel_->WriteRegister(address, value);
        if (!status.ok()) break;
        ++writes_executed_;
        ++address;  // bursts hit consecutive registers
      }
      if (!req.ExpectsResponse()) return;
      rsp.is_write_ack = true;
      rsp.error =
          status.ok() ? ResponseError::kOk : ResponseError::kUnmappedAddress;
      break;
    }
    case Command::kRead: {
      Word address = req.address;
      rsp.error = ResponseError::kOk;
      for (int i = 0; i < req.read_length; ++i) {
        auto value = kernel_->ReadRegister(address);
        if (!value.ok()) {
          rsp.error = ResponseError::kUnmappedAddress;
          rsp.data.clear();
          break;
        }
        rsp.data.push_back(*value);
        ++address;
      }
      break;
    }
    default:
      if (!req.ExpectsResponse()) return;
      rsp.is_write_ack = req.IsWrite();
      rsp.error = ResponseError::kBadCommand;
      break;
  }
  shell_->Respond(rsp);
}

}  // namespace aethereal::config
