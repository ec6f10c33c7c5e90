#include "ode/field_tape.hpp"

#include <stdexcept>
#include <tuple>

namespace nncs {

namespace {

// An exact [0, 0] (a command's higher coefficients, a zero command, a field
// with zero rows) costs nothing and is never rounded: x ± [0, 0] = x, and a
// product term with a [0, 0] factor is skipped. Rounding it outward instead
// would give [-4.9e-324, 4.9e-324], and every later product with such a
// bound takes the CPU's slow subnormal path.

Interval add(const Interval& a, const Interval& b) {
  if (a.is_zero()) {
    return b;
  }
  return b.is_zero() ? a : a + b;
}

Interval sub(const Interval& a, const Interval& b) {
  if (b.is_zero()) {
    return a;
  }
  return a.is_zero() ? -b : a - b;
}

/// acc += x * y, skipping the term when either factor is exactly [0, 0].
void add_product(Interval& acc, const Interval& x, const Interval& y) {
  if (!x.is_zero() && !y.is_zero()) {
    acc = add(acc, x * y);
  }
}

}  // namespace

TapeVar TapeVar::apply(TapeOp op, TapeVar a, TapeVar b, const Interval& k) {
  if (a.tape_ == nullptr || b.tape_ != a.tape_) {
    throw std::invalid_argument("FieldTape: operand was not recorded on this tape");
  }
  a.tape_->nodes_.push_back({op, a.node_, b.node_, k});
  return TapeVar{a.tape_, static_cast<std::uint32_t>(a.tape_->nodes_.size() - 1)};
}

FieldTape::FieldTape(std::size_t state_dim, std::size_t command_dim)
    : state_dim_(state_dim), command_dim_(command_dim), nodes_(state_dim + command_dim) {}

void FieldTape::set_outputs(std::span<const TapeVar> out) {
  for (const TapeVar& v : out) {
    if (v.tape_ != this) {
      throw std::invalid_argument("FieldTape: the field left an output unwritten");
    }
    outputs_.push_back(v.node_);
  }
}

std::size_t FieldTape::pass(std::span<Interval> coeffs, std::size_t stride, std::size_t k) const {
  if (k >= stride || coeffs.size() != nodes_.size() * stride) {
    throw std::invalid_argument("FieldTape::pass: coefficient buffer does not fit the pass");
  }
  std::size_t terms = 0;
  for (std::size_t n = state_dim_ + command_dim_; n < nodes_.size(); ++n) {
    const Node& node = nodes_[n];
    Interval* r = &coeffs[n * stride];
    const Interval* a = &coeffs[node.a * stride];
    const Interval* b = &coeffs[node.b * stride];
    switch (node.op) {
      case Op::kAdd:
        r[k] = add(a[k], b[k]);
        ++terms;
        break;
      case Op::kSub:
        r[k] = sub(a[k], b[k]);
        ++terms;
        break;
      case Op::kNeg:
        r[k] = -a[k];
        ++terms;
        break;
      case Op::kMul:
        r[k] = Interval{};
        for (std::size_t i = 0; i <= k; ++i) {
          add_product(r[k], a[i], b[k - i]);
        }
        terms += k + 1;
        break;
      case Op::kScale:
        r[k] = node.k * a[k];
        ++terms;
        break;
      case Op::kAddConst:
        r[k] = k == 0 ? add(a[0], node.k) : a[k];
        ++terms;
        break;
      case Op::kSubConst:
        r[k] = k == 0 ? sub(a[0], node.k) : a[k];
        ++terms;
        break;
      case Op::kSin: {
        Interval* c = r + stride;  // the kCos partner
        if (k == 0) {
          std::tie(r[0], c[0]) = sincos(a[0]);
          break;
        }
        Interval s_acc{};
        Interval c_acc{};
        for (std::size_t j = 1; j <= k; ++j) {
          const Interval ju = Interval{static_cast<double>(j)} * a[j];
          add_product(s_acc, ju, c[k - j]);
          add_product(c_acc, ju, r[k - j]);
        }
        // 1/k is not exactly representable for all k; divide in interval
        // arithmetic to stay sound ([0, 0] / k stays exact).
        r[k] = s_acc / Interval{static_cast<double>(k)};
        c[k] = -(c_acc / Interval{static_cast<double>(k)});
        terms += 2 * k;
        break;
      }
      case Op::kCos:
      case Op::kInput:
        break;
    }
  }
  return terms;
}

Interval horner(std::span<const Interval> c, const Interval& t) {
  if (c.empty()) {
    return Interval{};
  }
  Interval acc = c.back();
  for (std::size_t k = c.size() - 1; k-- > 0;) {
    acc = add(c[k], t * acc);
  }
  return acc;
}

}  // namespace nncs
