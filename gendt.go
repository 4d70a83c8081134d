// Package gendt is a Go reproduction of "GenDT: Mobile Network Drive
// Testing Made Efficient with Generative Modeling" (CoNEXT 2022): a
// conditional deep generative model that synthesizes multivariate radio
// KPI time series (RSRP, RSRQ, SINR, CQI, and a serving-cell channel) for
// a drive-test trajectory, conditioned on the network context (the
// time-varying set of potential serving cells) and the environment context
// (land use and points of interest around the device).
//
// The package re-exports the stable public surface of the internal
// implementation:
//
//   - dataset synthesis (the simulated Dataset A / Dataset B analogues),
//   - sequence preparation and the GenDT model (train, generate,
//     uncertainty),
//   - the §5.2 baselines behind a common Generator interface,
//   - the §5.1 fidelity metrics, and
//   - the experiment harnesses for every table and figure of the paper.
//
// Quickstart:
//
//	data := gendt.NewDatasetA(gendt.DatasetSpec{Seed: 1, Scale: 0.05})
//	chans := gendt.RSRPRSRQChannels()
//	train := gendt.PrepareAll(data.TrainRuns(), chans, 10)
//	model := gendt.NewModel(gendt.Config{Channels: chans, Epochs: 10})
//	model.Train(train, nil)
//	test := gendt.PrepareSequence(data.TestRuns()[0], chans, 10)
//	series := model.DenormalizeSeries(model.Generate(test))
//	// series[0] is the generated RSRP series in dBm.
package gendt

import (
	"gendt/internal/baselines"
	"gendt/internal/cells"
	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/downstream"
	"gendt/internal/experiments"
	"gendt/internal/geo"
	"gendt/internal/mdt"
	"gendt/internal/metrics"
	"gendt/internal/sim"
)

// Model is the GenDT conditional generator (paper §4): GNN-node network,
// aggregation network, autoregressive ResGen residual, adversarial
// training, batch-based training and generation, and MC-dropout model
// uncertainty.
type Model = core.Model

// Config sizes and configures a Model; see core.Config for field docs.
type Config = core.Config

// NewModel constructs a GenDT model.
func NewModel(cfg Config) *Model { return core.NewModel(cfg) }

// ChannelSpec defines one generated KPI channel.
type ChannelSpec = core.ChannelSpec

// Sequence is a prepared trajectory: per-step normalized KPIs plus network
// and environment context.
type Sequence = core.Sequence

// Channel set constructors.
var (
	// StandardChannels returns the paper's four target KPIs
	// (RSRP, RSRQ, SINR, CQI).
	StandardChannels = core.StandardChannels
	// RSRPRSRQChannels returns the two KPIs available in Dataset B.
	RSRPRSRQChannels = core.RSRPRSRQChannels
	// ServingRankChannel returns the serving-cell channel used by the
	// handover use case (§6.3.2).
	ServingRankChannel = core.ServingRankChannel
	// KPIChannel returns the ChannelSpec for a radio KPI index.
	KPIChannel = core.KPIChannel
)

// InferModel is a frozen float32/int8 inference snapshot of a trained
// Model, built with Model.Freeze — the blocked-kernel fast path behind
// gendt-serve's -precision flag.
type InferModel = core.InferModel

// Precision names a serving backend: f64 (the live model), f32, or int8.
type Precision = core.Precision

// Serving precisions.
const (
	PrecisionF64  = core.PrecisionF64
	PrecisionF32  = core.PrecisionF32
	PrecisionInt8 = core.PrecisionInt8
)

// ModelGenerator is the read-only generation interface shared by the live
// Model and the frozen InferModel; the serving and validation layers are
// written against it. (Named to avoid colliding with the baselines'
// Generator interface below.)
type ModelGenerator = core.Generator

// PrepareOptions controls sequence preparation (cell cap, closed-loop
// load awareness).
type PrepareOptions = core.PrepareOptions

// PrepareSequence converts a measurement run into model-ready tensors.
func PrepareSequence(run Run, chans []ChannelSpec, maxCells int) *Sequence {
	return core.PrepareSequence(run, chans, maxCells)
}

// PrepareSequenceWith converts a measurement run into model-ready tensors
// with explicit options (e.g. the closed-loop LoadAware extension).
func PrepareSequenceWith(run Run, chans []ChannelSpec, opt PrepareOptions) *Sequence {
	return core.PrepareSequenceWith(run, chans, opt)
}

// PrepareAll prepares several runs at once.
func PrepareAll(runs []Run, chans []ChannelSpec, maxCells int) []*Sequence {
	return core.PrepareAll(runs, chans, maxCells)
}

// Dataset bundles a simulated world and the measurement runs taken in it.
type Dataset = dataset.Dataset

// DatasetSpec controls dataset synthesis; Scale=1 approximates the paper's
// sample counts.
type DatasetSpec = dataset.Spec

// Run is one measurement campaign: trajectory plus annotated measurements.
type Run = dataset.Run

// Dataset constructors and helpers.
var (
	// NewDatasetA synthesizes the Dataset A analogue (walk/bus/tram, 1 s).
	NewDatasetA = dataset.NewDatasetA
	// NewDatasetB synthesizes the Dataset B analogue (city/highway,
	// multi-city region, coarse granularity).
	NewDatasetB = dataset.NewDatasetB
	// LongComplexRun builds the §6.1.3 three-city test trajectory.
	LongComplexRun = dataset.LongComplexRun
	// Partition splits runs into geographically contiguous subsets (§6.2.2).
	Partition = dataset.Partition
	// NewSiteAt builds the sectors of a hypothetical new cell site, the
	// input to Dataset.WithExtraCells what-if analyses (§C.2).
	NewSiteAt = dataset.NewSiteAt
)

// Generator is the common train/generate contract shared by GenDT and the
// baselines.
type Generator = baselines.Generator

// Baseline constructors (§5.2).
var (
	NewFDaS    = baselines.NewFDaS
	NewMLP     = baselines.NewMLP
	NewLSTMGNN = baselines.NewLSTMGNN
	NewDG      = baselines.NewDG
	// NewGenDT wraps a GenDT model in the Generator interface.
	NewGenDT = baselines.NewGenDT
)

// Fidelity metrics (§5.1).
var (
	// MAE is the mean absolute error between equal-length series.
	MAE = metrics.MAE
	// DTW is the normalized dynamic-time-warping distance.
	DTW = metrics.DTW
	// HWD is the histogram Wasserstein distance between two samples.
	HWD = metrics.HWD
)

// Point is a geographic coordinate; Trajectory is a timestamped sequence
// of device locations — the model's notion of a drive-test route.
type (
	Point      = geo.Point
	Trajectory = geo.Trajectory
)

// SpeedProfile shapes synthetic route speeds; RouteThrough builds a
// trajectory from sparse waypoints (the practical virtual-drive-test
// entry point — see also cmd/gendt-route).
type SpeedProfile = geo.SpeedProfile

// Route-building helpers and standard mobility profiles.
var (
	RouteThrough     = geo.RouteThrough
	WalkProfile      = geo.WalkProfile
	BusProfile       = geo.BusProfile
	TramProfile      = geo.TramProfile
	CityDriveProfile = geo.CityDriveProfile
	HighwayProfile   = geo.HighwayProfile
)

// World is the simulated radio environment a dataset was measured in.
// World.Annotate(tr, maxCells) builds the context-only measurements a trained model
// generates against — the operational GenDT workflow of the paper's
// Figure 5, with no field measurement involved.
type World = sim.World

// Measurement is one drive-test sample with its context annotations.
type Measurement = sim.Measurement

// Cell is one sector of a cell site in a deployment.
type Cell = cells.Cell

// QoEPredictor is the §6.3.1 MLP that predicts a QoE metric (throughput or
// packet error rate) from radio KPIs.
type QoEPredictor = downstream.QoEPredictor

// Downstream use-case helpers (§6.3).
var (
	// GroundTruthQoE derives throughput and PER series from measurements.
	GroundTruthQoE = downstream.GroundTruthQoE
	// NewQoEPredictor builds a QoE regression model.
	NewQoEPredictor = downstream.NewQoEPredictor
	// SnapServingSeries converts a generated serving-rank channel into
	// serving-cell ids (raw per-sample snap).
	SnapServingSeries = downstream.SnapServingSeries
	// DecodeServingSeries is the persistence-aware (TTT-style) decoder for
	// the generated serving-rank channel.
	DecodeServingSeries = downstream.DecodeServingSeries
	// RealServingSeries extracts the measured serving-cell-id series.
	RealServingSeries = downstream.RealServingSeries
	// ModeFilter debounces a categorical id series (majority vote).
	ModeFilter = downstream.ModeFilter
	// InterHandoverTimes extracts durations between serving-cell changes.
	InterHandoverTimes = downstream.InterHandoverTimes
)

// QoE bounds for normalizing predictor targets.
const (
	ThroughputMaxMbps = downstream.ThroughputMaxMbps
	PERMax            = downstream.PERMax
)

// MDTSpec parameterizes a simulated MDT or crowdsourcing measurement
// campaign (the paper's §7.2 comparison, closed inside the simulator).
type MDTSpec = mdt.Spec

// MDT / crowdsourcing campaign helpers.
var (
	// DefaultMDT returns MDT-flavoured campaign parameters.
	DefaultMDT = mdt.DefaultMDT
	// DefaultCrowdsourcing returns crowdsourcing-flavoured parameters.
	DefaultCrowdsourcing = mdt.DefaultCrowdsourcing
	// CollectMDT runs a campaign against a world and returns runs usable
	// as GenDT training data.
	CollectMDT = mdt.Collect
)

// ExperimentOptions scales the paper-reproduction experiment harnesses.
type ExperimentOptions = experiments.Options

// Experiment presets.
var (
	// DefaultExperimentOptions is the standard reproduction scale.
	DefaultExperimentOptions = experiments.DefaultOptions
	// QuickExperimentOptions is a smoke-test scale.
	QuickExperimentOptions = experiments.QuickOptions
)
