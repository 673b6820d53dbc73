#include "eval/svg_render.h"

#include <cstdarg>
#include <cstdio>
#include <sstream>

namespace scuba {

namespace {

/// Maps a data-space point into image coordinates (SVG y grows downward).
struct Projector {
  Rect region;
  double scale;
  double height;

  double X(double x) const { return (x - region.min_x) * scale; }
  double Y(double y) const { return height - (y - region.min_y) * scale; }
};

void Append(std::ostringstream& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out << buf;
}

/// Deterministic per-cluster hue so adjacent clusters differ visually.
int HueOf(ClusterId cid) { return static_cast<int>((cid * 47) % 360); }

}  // namespace

Result<std::string> RenderClustersSvg(const ClusterStore& store,
                                      const Rect& region,
                                      const SvgRenderOptions& options) {
  if (region.Empty() || region.Width() <= 0.0 || region.Height() <= 0.0) {
    return Status::InvalidArgument("render region must have positive area");
  }
  if (options.image_width <= 0.0) {
    return Status::InvalidArgument("image_width must be positive");
  }

  Projector proj;
  proj.region = region;
  proj.scale = options.image_width / region.Width();
  proj.height = region.Height() * proj.scale;

  std::ostringstream out;
  Append(out,
         "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" "
         "height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n",
         options.image_width, proj.height, options.image_width, proj.height);
  out << "<rect width=\"100%\" height=\"100%\" fill=\"#fafafa\"/>\n";

  for (ClusterId cid : store.SortedClusterIds()) {
    const MovingCluster& cluster = *store.GetCluster(cid);
    const int hue = HueOf(cid);
    if (options.draw_clusters) {
      Append(out,
             "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.1f\" "
             "fill=\"hsla(%d,70%%,50%%,0.08)\" "
             "stroke=\"hsl(%d,70%%,40%%)\" stroke-width=\"1\"/>\n",
             proj.X(cluster.centroid().x), proj.Y(cluster.centroid().y),
             std::max(2.0, cluster.radius() * proj.scale), hue, hue);
    }
    if (options.draw_nuclei && cluster.has_nucleus()) {
      Append(out,
             "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.1f\" fill=\"none\" "
             "stroke=\"hsl(%d,70%%,40%%)\" stroke-width=\"1\" "
             "stroke-dasharray=\"4 3\"/>\n",
             proj.X(cluster.NucleusCenter().x),
             proj.Y(cluster.NucleusCenter().y),
             std::max(1.0, cluster.nucleus_radius() * proj.scale), hue);
    }
    for (const ClusterMember& m : cluster.members()) {
      Point p = cluster.MemberPosition(m);
      if (m.kind == EntityKind::kObject) {
        if (!options.draw_members) continue;
        Append(out,
               "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2\" "
               "fill=\"hsl(%d,70%%,35%%)\"/>\n",
               proj.X(p.x), proj.Y(p.y), hue);
      } else if (options.draw_query_ranges) {
        Rect r = Rect::Centered(p, m.range_width, m.range_height);
        Append(out,
               "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" "
               "fill=\"none\" stroke=\"hsl(%d,90%%,45%%)\" "
               "stroke-width=\"1\" stroke-dasharray=\"2 2\"/>\n",
               proj.X(r.min_x), proj.Y(r.max_y), r.Width() * proj.scale,
               r.Height() * proj.scale, hue);
      }
    }
  }
  out << "</svg>\n";
  return out.str();
}

}  // namespace scuba
