package stats

import (
	"fmt"
	"math"
)

// This file implements the distribution functions needed to turn test
// statistics into p-values: the standard normal CDF and the chi-square
// (upper-tail) CDF via the regularized incomplete gamma function. The
// implementations follow the classic Numerical-Recipes-style series and
// continued-fraction expansions, accurate to ~1e-10 over the ranges the
// study pipeline uses.

// NormalCDF returns P(Z <= z) for a standard normal Z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the z such that NormalCDF(z) = p, via the
// Acklam rational approximation refined by one Halley step. Panics if
// p is outside (0, 1).
func NormalQuantile(p float64) float64 {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("stats: NormalQuantile p=%g out of (0,1)", p))
	}
	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// gammaP returns the regularized lower incomplete gamma P(a, x).
func gammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		panic(fmt.Sprintf("stats: gammaP(a=%g, x=%g) out of domain", a, x))
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaCF(a, x)
}

// gammaSeries evaluates P(a,x) by its series representation (x < a+1).
func gammaSeries(a, x float64) float64 {
	const itmax = 500
	const eps = 3e-14
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for n := 0; n < itmax; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaCF evaluates Q(a,x) = 1-P(a,x) by continued fraction (x >= a+1).
func gammaCF(a, x float64) float64 {
	const itmax = 500
	const eps = 3e-14
	const fpmin = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= itmax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareSF returns the upper-tail probability P(X >= x) for a
// chi-square distribution with df degrees of freedom.
func ChiSquareSF(x float64, df int) float64 {
	if df <= 0 {
		panic(fmt.Sprintf("stats: ChiSquareSF df=%d", df))
	}
	if x <= 0 {
		return 1
	}
	return 1 - gammaP(float64(df)/2, x/2)
}

// lnFactorial returns ln(n!) via Lgamma.
func lnFactorial(n int) float64 {
	if n < 0 {
		panic(fmt.Sprintf("stats: lnFactorial(%d)", n))
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}
