package main

import "math"

// ITU-T G.107 E-model, written from the Recommendation's formulas and its
// default parameter values, for a G.711 call with packet-loss concealment
// (Ie = 0, Bpl = 25.1 from G.113 Appendix I) under random loss. It shares no
// code with the program's own MOS estimate, so agreement between the two is
// evidence that the program scores calls the way the standard does.
const (
	g107SLR   = 8.0
	g107RLR   = 2.0
	g107STMR  = 15.0
	g107LSTR  = 18.0
	g107Ds    = 3.0
	g107TELR  = 65.0
	g107WEPL  = 110.0
	g107qdu   = 1.0
	g107Nc    = -70.0
	g107Nfor  = -64.0
	g107Ps    = 35.0
	g107Pr    = 35.0
	g711Ie    = 0.0
	g711Bpl   = 25.1
	g107Burst = 1.0
)

// g107R returns the transmission rating R for a mean one-way delay of taMs
// milliseconds and a packet-loss share loss in [0,1]. The echo paths take
// their G.107 defaults: T = Ta and Tr = 2·Ta.
func g107R(taMs, loss float64) float64 {
	lg := math.Log10
	pow := math.Pow
	T, Tr := taMs, 2*taMs

	// Basic signal-to-noise ratio Ro.
	olr := g107SLR + g107RLR
	nfo := g107Nfor + g107RLR
	pre := g107Pr + 10*lg(1+pow(10, (10-g107LSTR)/10))
	nor := g107RLR - 121 + pre + 0.008*(pre-35)*(pre-35)
	nos := g107Ps - g107SLR - g107Ds - 100 + 0.004*pow(g107Ps-olr-g107Ds-14, 2)
	no := 10 * lg(pow(10, g107Nc/10)+pow(10, nos/10)+pow(10, nor/10)+pow(10, nfo/10))
	ro := 15 - 1.5*(g107SLR+no)

	// Simultaneous impairments Is = Iolr + Ist + Iq.
	xolr := olr + 0.2*(64+no-g107RLR)
	iolr := 20 * (pow(1+pow(xolr/8, 8), 1.0/8) - xolr/8)
	stmro := -10 * lg(pow(10, -g107STMR/10)+math.Exp(-T/4)*pow(10, -g107TELR/10))
	ist := 12*pow(1+pow((stmro-13)/6, 8), 1.0/8) -
		28*pow(1+pow((stmro+1)/19.4, 35), 1.0/35) -
		13*pow(1+pow((stmro-3)/33, 13), 1.0/13) + 29
	q := 37 - 15*lg(g107qdu)
	g := 1.07 + 0.258*q + 0.0602*q*q
	z := 46.0/30 - g/40
	y := (ro-100)/15 + 46/8.4 - g/9
	iq := 15 * lg(1+pow(10, y)+pow(10, z))
	is := iolr + ist + iq

	// Delay impairments Id = Idte + Idle + Idd.
	terv := g107TELR - 40*lg((1+T/10)/(1+T/150)) + 6*math.Exp(-0.3*T*T)
	roe := -1.5 * (no - g107RLR)
	re := 80 + 2.5*(terv-14)
	idte := ((roe-re)/2 + math.Sqrt((roe-re)*(roe-re)/4+100) - 1) * (1 - math.Exp(-T))
	rle := 10.5 * (g107WEPL + 7) * pow(Tr+1, -0.25)
	idle := (ro-rle)/2 + math.Sqrt((ro-rle)*(ro-rle)/4+169)
	var idd float64
	if taMs > 100 {
		x := lg(taMs/100) / lg(2)
		idd = 25 * (pow(1+pow(x, 6), 1.0/6) - 3*pow(1+pow(x/3, 6), 1.0/6) + 2)
	}
	id := idte + idle + idd

	// Effective equipment impairment under random loss.
	ppl := 100 * loss
	ieEff := g711Ie + (95-g711Ie)*ppl/(ppl/g107Burst+g711Bpl)

	return ro - is - id - ieEff
}

// g107MOS maps a rating R to the G.107 Annex B MOS estimate.
func g107MOS(r float64) float64 {
	switch {
	case r <= 0:
		return 1
	case r >= 100:
		return 4.5
	}
	return 1 + 0.035*r + r*(r-60)*(100-r)*7e-6
}

// mosTolerance is how far the program's MOS may sit from the G.107 value.
// The program uses a piecewise-linear delay impairment and a logarithmic
// loss fit; over the delays (< 250 ms) and loss (< 10 %) the workloads
// produce, those approximations stay within this band of the full model.
const mosTolerance = 0.1
