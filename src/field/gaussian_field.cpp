#include "field/gaussian_field.hpp"

#include <cmath>

namespace isomap {

double GaussianBump::value(Vec2 p) const {
  const Vec2 d = (p - center).rotated(-rotation);
  const double qx = d.x / sx;
  const double qy = d.y / sy;
  return amplitude * std::exp(-0.5 * (qx * qx + qy * qy));
}

Vec2 GaussianBump::gradient(Vec2 p) const {
  const Vec2 d = (p - center).rotated(-rotation);
  const double v = value(p);
  // Gradient in the rotated frame, then rotate back.
  const Vec2 g_local{-d.x / (sx * sx) * v, -d.y / (sy * sy) * v};
  return g_local.rotated(rotation);
}

GaussianField::GaussianField(FieldBounds bounds, double base, Vec2 trend,
                             std::vector<GaussianBump> bumps)
    : bounds_(bounds), base_(base), trend_(trend), bumps_(std::move(bumps)) {
  kernels_.reserve(bumps_.size());
  for (const GaussianBump& b : bumps_)
    kernels_.push_back({b.center.x, b.center.y, std::cos(-b.rotation),
                        std::sin(-b.rotation), std::cos(b.rotation),
                        std::sin(b.rotation), b.sx, b.sy, b.amplitude});
}

// Both loops below inline GaussianBump::value/gradient term for term:
// Vec2::rotated's x * c - y * s and x * s + y * c with the table's
// cos/sin, then the same divisions and exp. Same operands, same order,
// no reassociation — the results are the bump sums' bits.
double GaussianField::value(Vec2 p) const {
  double v = base_ + trend_.dot(p);
  for (const Kernel& k : kernels_) {
    const double dx = p.x - k.cx;
    const double dy = p.y - k.cy;
    const double qx = (dx * k.cos_in - dy * k.sin_in) / k.sx;
    const double qy = (dx * k.sin_in + dy * k.cos_in) / k.sy;
    v += k.amplitude * std::exp(-0.5 * (qx * qx + qy * qy));
  }
  return v;
}

Vec2 GaussianField::gradient(Vec2 p) const {
  Vec2 g = trend_;
  for (const Kernel& k : kernels_) {
    const double dx = p.x - k.cx;
    const double dy = p.y - k.cy;
    const double rx = dx * k.cos_in - dy * k.sin_in;
    const double ry = dx * k.sin_in + dy * k.cos_in;
    const double qx = rx / k.sx;
    const double qy = ry / k.sy;
    const double v = k.amplitude * std::exp(-0.5 * (qx * qx + qy * qy));
    const double gx = -rx / (k.sx * k.sx) * v;
    const double gy = -ry / (k.sy * k.sy) * v;
    g += Vec2{gx * k.cos_out - gy * k.sin_out, gx * k.sin_out + gy * k.cos_out};
  }
  return g;
}

GaussianField GaussianField::random(FieldBounds bounds, int num_bumps,
                                    double amplitude, Rng& rng) {
  std::vector<GaussianBump> bumps;
  bumps.reserve(static_cast<std::size_t>(num_bumps));
  const double span = std::min(bounds.width(), bounds.height());
  for (int i = 0; i < num_bumps; ++i) {
    GaussianBump b;
    b.center = {rng.uniform(bounds.x0, bounds.x1),
                rng.uniform(bounds.y0, bounds.y1)};
    b.amplitude = rng.uniform(-amplitude, amplitude);
    b.sx = rng.uniform(0.1, 0.35) * span;
    b.sy = rng.uniform(0.1, 0.35) * span;
    b.rotation = rng.uniform(0.0, M_PI);
    bumps.push_back(b);
  }
  const Vec2 trend{rng.uniform(-0.2, 0.2) * amplitude / span,
                   rng.uniform(-0.2, 0.2) * amplitude / span};
  return GaussianField(bounds, 0.0, trend, std::move(bumps));
}

}  // namespace isomap
