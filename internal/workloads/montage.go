package workloads

import (
	"fmt"
	"strings"

	"hiway/internal/lang/dax"
	"hiway/internal/wf"
)

// MontageConfig parameterizes the Montage mosaic workflow (§4.3). A degree
// of 0.25 yields the paper's comparably small workflow with a maximum
// degree of parallelism of eleven during the projection and background
// correction phases.
type MontageConfig struct {
	Degree float64 // mosaic size in degrees; default 0.25
	// RuntimeScale multiplies all task runtimes (default 1.0). The
	// heterogeneity experiment (§4.3) uses short tasks so that even a
	// 256-way-stressed node finishes one within the observed makespans.
	RuntimeScale float64
}

func (c MontageConfig) scale() float64 { orDefault(&c.RuntimeScale, 1); return c.RuntimeScale }

// montageTiles maps the degree to the number of input tiles (and thus the
// workflow's degree of parallelism).
func (c MontageConfig) tiles() int {
	orDefault(&c.Degree, 0.25)
	d := c.Degree
	// Montage fetches roughly (d·8+9)² /9 … for our purposes: 0.25° → 11
	// tiles, growing quadratically with the degree.
	return max(int(float64(44*d*d)+float64(28*d)+1.25), 2)
}

// MontageDAX emits the workflow as a Pegasus DAX document — the format the
// paper generated with the Montage toolkit and fed to Hi-WAY's DAX
// frontend. Runtimes are seconds on the reference machine.
func MontageDAX(cfg MontageConfig) string {
	n := cfg.tiles()
	s := cfg.scale()
	var sb strings.Builder
	sb.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	fmt.Fprintf(&sb, `<adag xmlns="http://pegasus.isi.edu/schema/DAX" name="montage-%d">`+"\n", n)

	// Phase 1: mProject — reproject each raw tile (parallelism n).
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `  <job id="proj%02d" name="mProject" runtime="%.4g" threads="1" memMB="1024">
    <uses file="raw/tile%02d.fits" link="input" sizeMB="18"/>
    <uses file="region.hdr" link="input" sizeMB="0.1"/>
    <uses file="proj/tile%02d.fits" link="output" sizeMB="35"/>
  </job>
`, i, 14*s, i, i)
	}
	// Phase 2: mDiffFit on overlapping neighbours (ring topology).
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		fmt.Fprintf(&sb, `  <job id="diff%02d" name="mDiffFit" runtime="%.4g" memMB="512">
    <uses file="proj/tile%02d.fits" link="input"/>
    <uses file="proj/tile%02d.fits" link="input"/>
    <uses file="diff/fit%02d.txt" link="output" sizeMB="0.3"/>
  </job>
`, i, 4*s, i, j, i)
	}
	// Phase 3: mConcatFit + mBgModel (sequential bottleneck).
	fmt.Fprintf(&sb, `  <job id="concat" name="mConcatFit" runtime="%.4g" memMB="512">`+"\n", 5*s)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `    <uses file="diff/fit%02d.txt" link="input"/>`+"\n", i)
	}
	sb.WriteString(`    <uses file="fits.tbl" link="output" sizeMB="0.5"/>` + "\n  </job>\n")
	fmt.Fprintf(&sb, `  <job id="bgmodel" name="mBgModel" runtime="%.4g" memMB="1024">
    <uses file="fits.tbl" link="input"/>
    <uses file="corrections.tbl" link="output" sizeMB="0.2"/>
  </job>
`, 9*s)
	// Phase 4: mBackground per tile (parallelism n again).
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `  <job id="bg%02d" name="mBackground" runtime="%.4g" memMB="1024">
    <uses file="proj/tile%02d.fits" link="input"/>
    <uses file="corrections.tbl" link="input"/>
    <uses file="corr/tile%02d.fits" link="output" sizeMB="35"/>
  </job>
`, i, 6*s, i, i)
	}
	// Phase 5: mImgtbl → mAdd → mShrink → mJPEG.
	fmt.Fprintf(&sb, `  <job id="imgtbl" name="mImgtbl" runtime="%.4g" memMB="512">`+"\n", 3*s)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `    <uses file="corr/tile%02d.fits" link="input"/>`+"\n", i)
	}
	sb.WriteString(`    <uses file="images.tbl" link="output" sizeMB="0.1"/>` + "\n  </job>\n")
	fmt.Fprintf(&sb, `  <job id="add" name="mAdd" runtime="%.4g" memMB="2048">
    <uses file="images.tbl" link="input"/>
`, 16*s)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `    <uses file="corr/tile%02d.fits" link="input"/>`+"\n", i)
	}
	fmt.Fprintf(&sb, `    <uses file="mosaic.fits" link="output" sizeMB="160"/>
  </job>
  <job id="shrink" name="mShrink" runtime="%.4g" memMB="1024">
    <uses file="mosaic.fits" link="input"/>
    <uses file="mosaic_small.fits" link="output" sizeMB="12"/>
  </job>
  <job id="jpeg" name="mJPEG" runtime="%.4g" memMB="512">
    <uses file="mosaic_small.fits" link="input"/>
    <uses file="mosaic.jpg" link="output" sizeMB="2"/>
  </job>
</adag>
`, 5*s, 3*s)
	return sb.String()
}

// Montage parses the generated DAX into a static driver plus its inputs.
func Montage(cfg MontageConfig) (wf.StaticDriver, []Input) {
	n := cfg.tiles()
	inputs := []Input{{Path: "region.hdr", SizeMB: 0.1}}
	for i := 0; i < n; i++ {
		inputs = append(inputs, Input{Path: fmt.Sprintf("raw/tile%02d.fits", i), SizeMB: 18})
	}
	return dax.NewDriver(fmt.Sprintf("montage-%.2fdeg", cfg.Degree), MontageDAX(cfg)), inputs
}

// ---------------------------------------------------------------------------
// k-means (§3.3)

// KMeansCuneiform returns the iterative k-means clustering workflow in the
// Cuneiform dialect: assignment and update steps repeat until a convergence
// check emits an empty flag list.
func KMeansCuneiform(points string, k int) string {
	return fmt.Sprintf(`%%%% k-means clustering as an iterative Cuneiform workflow (paper §3.3).
deftask init( centroids : points ~k ) @cpu 5 @size centroids 2 in bash *{
  kmeans-init --k "$k" --points "$points" --out "$centroids"
}*
deftask assign( parts : points centroids ) @cpu 30 @threads 2 @size parts 40 in bash *{
  kmeans-assign --points "$points" --centroids "$centroids" --out "$parts"
}*
deftask update( centroids : parts ) @cpu 10 @size centroids 2 in bash *{
  kmeans-update --parts "$parts" --out "$centroids"
}*
deftask converged( <flag> : old new ) @cpu 2 in bash *{
  kmeans-converged --old "$old" --new "$new" --flag-dir "$flag"
}*
defun iterate( points old ) {
  new( points: points old: old )
}
defun new( points old ) {
  step( points: points old: old next: update( parts: assign( points: points centroids: old ) ) )
}
defun step( points old next ) {
  if converged( old: old new: next ) then new( points: points old: next ) else next end
}
iterate( points: %q old: init( points: %q k: "%d" ) );
`, points, points, k)
}
