#include "src/workload/conversation.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "src/common/strings.h"

namespace skywalker {

ConversationWorkloadConfig ConversationWorkloadConfig::Arena() {
  ConversationWorkloadConfig c;
  c.num_global_templates = 10;
  c.templates_per_region = 0;
  c.region_local_template_prob = 0.0;
  c.template_zipf_s = 1.3;
  c.no_template_prob = 0.08;
  c.turns_mean = 4;
  c.user_template_loyalty = 0.55;
  return c;
}

ConversationWorkloadConfig ConversationWorkloadConfig::WildChat() {
  ConversationWorkloadConfig c;
  c.num_global_templates = 40;
  c.templates_per_region = 10;
  c.region_local_template_prob = 0.75;
  c.template_zipf_s = 1.05;
  c.no_template_prob = 0.20;
  c.turns_mean = 4;
  c.user_template_loyalty = 0.6;
  return c;
}

ConversationGenerator::ConversationGenerator(
    const ConversationWorkloadConfig& config, size_t num_regions,
    uint64_t seed)
    : config_(config),
      num_regions_(num_regions),
      rng_(seed),
      lengths_(config.lengths),
      num_global_templates_(config.num_global_templates) {
  size_t total = static_cast<size_t>(config_.num_global_templates) +
                 num_regions_ * static_cast<size_t>(config_.templates_per_region);
  auto templates = std::make_shared<std::vector<TokenSeq>>();
  templates->reserve(total);
  for (size_t i = 0; i < total; ++i) {
    TokenSeq t(static_cast<size_t>(rng_.UniformInt(
        config_.template_len_min, config_.template_len_max)));
    WriteFresh(t.data(), static_cast<int64_t>(t.size()));
    templates->push_back(std::move(t));
  }
  templates_ = std::move(templates);
}

ConversationGenerator::ConversationGenerator(const ConversationGenerator& base,
                                             uint64_t client_index,
                                             uint64_t client_seed)
    : config_(base.config_),
      num_regions_(base.num_regions_),
      rng_(client_seed),
      lengths_(base.config_.lengths),
      templates_(base.templates_),
      num_global_templates_(base.num_global_templates_) {
  // User and session ids get a million-wide band each. The token band
  // truncates to 0 in the 32-bit Token (see the declaration).
  next_token_ = static_cast<Token>((client_index + 1) << 32);
  next_user_ = static_cast<UserId>((client_index + 1) * 1'000'000 + 1);
  next_session_ = static_cast<SessionId>((client_index + 1) * 1'000'000 + 1);
}

void ConversationGenerator::WriteFresh(Token* out, int64_t n) {
  std::iota(out, out + n, next_token_);
  next_token_ += static_cast<Token>(n);
}

ConversationGenerator::UserProfile ConversationGenerator::MakeUser(
    RegionId region) {
  UserProfile user;
  user.user_id = next_user_++;
  user.region = region;
  user.routing_key = StrFormat("user-%ld", static_cast<long>(user.user_id));
  return user;
}

int ConversationGenerator::PickTemplate(const UserProfile& user) {
  if (rng_.Bernoulli(config_.no_template_prob)) {
    return -1;
  }
  auto it = user_last_template_.find(user.user_id);
  if (it != user_last_template_.end() && it->second >= 0 &&
      rng_.Bernoulli(config_.user_template_loyalty)) {
    return it->second;
  }
  bool use_local = config_.templates_per_region > 0 &&
                   rng_.Bernoulli(config_.region_local_template_prob);
  int pool_base;
  int pool_size;
  if (use_local) {
    pool_base = num_global_templates_ +
                static_cast<int>(user.region) * config_.templates_per_region;
    pool_size = config_.templates_per_region;
  } else {
    pool_base = 0;
    pool_size = num_global_templates_;
  }
  if (pool_size <= 0) {
    return -1;
  }
  int rank = static_cast<int>(rng_.Zipf(pool_size, config_.template_zipf_s));
  return pool_base + rank - 1;
}

ConversationGenerator::Conversation ConversationGenerator::MakeConversation(
    const UserProfile& user) {
  Conversation conv;
  conv.session_id = next_session_++;
  conv.template_id = PickTemplate(user);
  user_last_template_[user.user_id] = conv.template_id;

  int turns = static_cast<int>(rng_.Geometric(1.0 / config_.turns_mean));
  turns = std::clamp(turns, 1, config_.turns_max);

  // Every length first, in the order the turns consume them (input, then
  // output, turn by turn), so the transcript is sized once. Its fresh tail
  // U1 ⊕ A1 ⊕ ... ⊕ A_T then takes consecutive ids in that same order.
  TokenSpan tmpl;
  if (conv.template_id >= 0) {
    tmpl = (*templates_)[static_cast<size_t>(conv.template_id)];
  }
  turn_lens_.clear();
  size_t total = tmpl.size();
  for (int t = 0; t < turns; ++t) {
    const int64_t input = lengths_.SampleInputLen(rng_);
    const int64_t output = lengths_.SampleOutputLen(rng_);
    turn_lens_.push_back(input);
    turn_lens_.push_back(output);
    total += static_cast<size_t>(input + output);
  }
  auto transcript = std::make_shared<TokenSeq>(total);
  Token* fresh = std::copy(tmpl.begin(), tmpl.end(), transcript->data());
  WriteFresh(fresh, static_cast<int64_t>(total - tmpl.size()));
  const std::shared_ptr<const TokenSeq> buffer = std::move(transcript);
  conv.turns.resize(static_cast<size_t>(turns));
  size_t pos = tmpl.size();
  for (size_t t = 0; t < conv.turns.size(); ++t) {
    const auto input = static_cast<size_t>(turn_lens_[2 * t]);
    const auto output = static_cast<size_t>(turn_lens_[2 * t + 1]);
    conv.turns[t].prompt = SharedTokens(buffer, 0, pos + input);
    conv.turns[t].output = SharedTokens(buffer, pos + input, output);
    pos += input + output;
  }
  return conv;
}

std::vector<ConversationGenerator::TraceRecord>
ConversationGenerator::GenerateTrace(const std::vector<RegionId>& user_regions,
                                     int conversations_per_user) {
  std::vector<TraceRecord> trace;
  for (RegionId region : user_regions) {
    UserProfile user = MakeUser(region);
    for (int c = 0; c < conversations_per_user; ++c) {
      Conversation conv = MakeConversation(user);
      for (const Turn& turn : conv.turns) {
        trace.push_back(TraceRecord{user.user_id, region, conv.session_id,
                                    TokenSeq(turn.prompt)});
      }
    }
  }
  return trace;
}

}  // namespace skywalker
